"""Run-time feedback for the planner: the cardinality of earlier runs.

"We have found it problematic to obtain such statistics on the fly from
remote sites" — but a query the system has *already run* is its own best
statistic.  The chunked runtime probes each pipeline and, when it drains,
folds its true output cardinality into this ledger, keyed by the same
:func:`~repro.core.nrc.compile.term_fingerprint` the engine's compile cache
uses — so the next run of the same query is planned from the observed row
count, and a *structurally similar* query (same shape, different literals:
the parametrised-query pattern) inherits it through a constant-blind
secondary index (:func:`shape_fingerprint`).  An entry is what the planner
reads and nothing more: a cardinality, a run count and an age.  No clock is
read per chunk to keep it.

Thread-safety mirrors the engine's ``_CompileCache``: scheduler worker
threads stream subqueries through the one engine, so every ledger operation
holds a lock, and the ledger is LRU-bounded the same way.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["PlanFeedback", "PlanObservation", "PlanProbe", "shape_fingerprint"]


def shape_fingerprint(fingerprint: Tuple) -> Tuple:
    """A constant-blind view of a term fingerprint.

    ``Const`` leaves are wildcarded (their token dropped), so two runs of
    the same query shape with different literals — the common "same view,
    different parameter" session pattern — share one feedback key.  Scan
    request templates are *kept*: the table/division they name is structure
    (a different table is a different source), not a parameter.
    """
    if not isinstance(fingerprint, tuple):
        return fingerprint
    if len(fingerprint) == 2 and fingerprint[0] == "Const":
        return ("Const",)
    return tuple(shape_fingerprint(part) for part in fingerprint)


class PlanObservation:
    """What the ledger knows about one (shape of) query: the output row
    count of its *drained* runs (an EMA), how many runs it has seen, and
    when it last changed."""

    __slots__ = ("cardinality", "runs", "updated")

    def __init__(self) -> None:
        self.cardinality = 0.0
        self.runs = 0
        # When this observation last folded a run (or, for a restored
        # entry, when its persisted source was recorded) — the staleness
        # clock the plan store's decay runs on.  Kept through
        # snapshot/restore so compaction never resets an entry's age.
        self.updated = 0.0

    def _snapshot(self) -> "PlanObservation":
        """A consistent read-only copy (taken under the ledger lock): the
        ledger mutates observations in place, so lookups hand out copies."""
        copy = PlanObservation()
        copy.cardinality = self.cardinality
        copy.runs = self.runs
        copy.updated = self.updated
        return copy

    def _to_state(self) -> Dict:
        """A plain-data export (numbers only) for persistence."""
        return {"cardinality": self.cardinality, "runs": self.runs}

    @classmethod
    def _from_state(cls, state: Dict, updated: float) -> "PlanObservation":
        # Only these two keys are read: an older ledger's per-stage
        # "stages" map is left behind, so it still restores.
        observation = cls()
        observation.cardinality = float(state["cardinality"])
        observation.runs = int(state["runs"])
        observation.updated = updated
        return observation

    def _fold(self, cardinality: float, weight: float) -> None:
        if self.runs == 0:
            self.cardinality = cardinality
        else:
            self.cardinality = (self.cardinality * (1.0 - weight)
                                + cardinality * weight)
        self.runs += 1


class PlanProbe:
    """One run's feedback probe, owned by its pipeline.

    ``complete`` is called only when the pipeline drained normally, and
    folds the run's output cardinality into the ledger: an abandoned or
    failing run never records a partial count.  It is the probe's one
    method — the planner reads nothing per chunk, so the pump reads no
    clock for it.
    """

    __slots__ = ("_feedback", "_fingerprint")

    def __init__(self, feedback: "PlanFeedback", fingerprint: Tuple):
        self._feedback = feedback
        self._fingerprint = fingerprint

    def complete(self, cardinality: int) -> None:
        """Fold a *drained* run's output cardinality into the ledger."""
        self._feedback.record(self._fingerprint, float(cardinality))


class PlanFeedback:
    """The LRU-bounded, lock-guarded ledger of observed query behaviour."""

    #: How many distinct query fingerprints the ledger retains.
    LIMIT = 256
    #: Weight of one new run against the accumulated EMA.
    EMA_WEIGHT = 0.5

    def __init__(self, limit: int = LIMIT,
                 clock: Callable[[], float] = time.time):
        self.limit = limit
        self.clock = clock
        self.recordings = 0
        self.lookups = 0
        self.hits = 0
        # Write-through persistence hook: called as
        # ``on_record(fingerprint, observation_state, updated_ts)`` after
        # every fold, OUTSIDE the ledger lock (the callee does I/O; holding
        # the lock across a disk write would stall every concurrent
        # lookup).  The state is a consistent copy taken under the lock.
        self.on_record: Optional[Callable[[Tuple, Dict, float], None]] = None
        self._entries: "OrderedDict[Tuple, PlanObservation]" = OrderedDict()
        self._shapes: Dict[Tuple, Tuple] = {}
        self._lock = threading.Lock()

    def probe(self, fingerprint: Tuple) -> PlanProbe:
        """A fresh per-run probe for a pipeline keyed ``fingerprint``."""
        return PlanProbe(self, fingerprint)

    def record(self, fingerprint: Tuple, cardinality: float) -> None:
        """Fold one drained run's output cardinality into the ledger."""
        shape = shape_fingerprint(fingerprint)
        state = None
        updated = self.clock()
        with self._lock:
            self.recordings += 1
            observation = self._entries.get(fingerprint)
            if observation is None:
                observation = PlanObservation()
                self._entries[fingerprint] = observation
            self._entries.move_to_end(fingerprint)
            observation._fold(cardinality, self.EMA_WEIGHT)
            observation.updated = updated
            self._shapes[shape] = fingerprint
            self._evict_past_limit()
            hook = self.on_record
            if hook is not None:
                state = observation._to_state()
        if hook is not None and state is not None:
            try:
                hook(fingerprint, state, updated)
            except Exception:
                # Persistence must never break the run that just finished.
                pass

    def _evict_past_limit(self) -> None:
        """Drop the least recently used entries past ``limit`` (lock held)."""
        while len(self._entries) > self.limit:
            evicted, _ = self._entries.popitem(last=False)
            evicted_shape = shape_fingerprint(evicted)
            if self._shapes.get(evicted_shape) == evicted:
                del self._shapes[evicted_shape]

    def lookup(self, fingerprint: Tuple) -> Optional[PlanObservation]:
        """One planner lookup: a snapshot of the exact observation, else of
        the most recent structurally-similar one (same
        :func:`shape_fingerprint`; literals differ) — one lookup, at most
        one hit.  A shape-index hit refreshes the backing entry's LRU
        position, or a parametrised workload consulted only through the
        index would age out under churn while actively planned."""
        with self._lock:
            self.lookups += 1
            key = fingerprint
            observation = self._entries.get(key)
            if observation is None:
                key = self._shapes.get(shape_fingerprint(fingerprint))
                observation = None if key is None else self._entries.get(key)
            if observation is None:
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return observation._snapshot()

    def snapshot(self) -> List[Tuple[Tuple, Dict, float]]:
        """A consistent plain-data export of every entry, oldest-first.

        ``[(fingerprint, observation_state, updated_ts), ...]`` in LRU
        order, copied under the ledger lock so the store (compaction, the
        periodic flush) never reads mutating state.
        """
        with self._lock:
            return [(fingerprint, observation._to_state(),
                     observation.updated)
                    for fingerprint, observation in self._entries.items()]

    def restore(self, entries: List[Tuple[Tuple, Dict, float]]) -> int:
        """Load persisted entries, *without* clobbering live knowledge.

        Entries are inserted oldest-first below any existing entries'
        recency; a fingerprint the ledger already holds is skipped (what
        this process observed itself always outranks history).  Malformed
        entries are skipped, not raised — persisted state is advisory.
        Returns how many entries were restored.
        """
        restored = []
        for entry in entries:
            try:
                fingerprint, state, updated = entry
                restored.append((fingerprint,
                                 PlanObservation._from_state(state,
                                                             float(updated))))
            except (KeyError, TypeError, ValueError):
                continue
        with self._lock:
            live = self._entries
            if live:
                fresh: "OrderedDict[Tuple, PlanObservation]" = OrderedDict()
                for fingerprint, observation in restored:
                    if fingerprint not in live:
                        fresh[fingerprint] = observation
                fresh.update(live)
                self._entries = fresh
                count = len(fresh) - len(live)
            else:
                for fingerprint, observation in restored:
                    live[fingerprint] = observation
                count = len(live)
            # Fill the constant-blind index for restored shapes (newest
            # restored entry wins) without clobbering live mappings.
            restored_shapes: Dict[Tuple, Tuple] = {}
            for fingerprint, _observation in restored:
                if fingerprint in self._entries:
                    restored_shapes[shape_fingerprint(fingerprint)] = \
                        fingerprint
            for shape, fingerprint in restored_shapes.items():
                if shape not in self._shapes:
                    self._shapes[shape] = fingerprint
            self._evict_past_limit()
            return count

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._shapes.clear()
