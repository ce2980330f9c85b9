"""Statically registered statistics about remote sources.

"Several of the rules for join optimizations require statistics about the size
of files ... We have found it problematic to obtain such statistics on the fly
from remote sites, and are currently extending the system to use statically
stored statistics from commonly used data sources."  This registry is that
extension: per-driver (and per-table / per-division) cardinalities the join and
caching rule sets consult at compile time.

Latency statistics come in two flavours: **registered** (the static
declaration the paper favours — an operator saying "this driver is remote,
expect ~80 ms per request") and **observed** (an exponential moving average
of actual request round-trips, fed by the engine's driver executor).  The
registered value always wins where both exist; observation fills the gap for
drivers nobody declared, so a measurably slow driver becomes remote for the
parallelism rules on later compilations without any configuration.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Tuple

__all__ = ["SourceStatisticsRegistry"]


class SourceStatisticsRegistry:
    """Cardinality estimates keyed by (driver name, collection name)."""

    DEFAULT_CARDINALITY = 1000
    #: EMA weight of one new latency sample (higher = reacts faster).
    LATENCY_SAMPLE_WEIGHT = 0.2
    #: Samples below this (seconds) are discarded: a near-zero "round-trip"
    #: means the driver answered with a lazy cursor (the work — and the
    #: latency — is deferred to consumption), so the sample says nothing
    #: about the driver's real cost.  Folding such samples in would let a
    #: mixed eager/lazy driver's cursor dispatches decay a legitimately
    #: slow EMA below the remote threshold and demote exactly the driver
    #: whose eager requests need parallelism.
    LATENCY_SAMPLE_FLOOR = 0.001
    #: Observed per-request latency (seconds) above which an *undeclared*
    #: driver is treated as remote by the parallelism rules.  Deliberately
    #: far above a local in-process driver's dispatch cost, so only genuine
    #: network-ish round-trips flip a driver's classification.
    REMOTE_LATENCY_THRESHOLD = 0.05

    def __init__(self) -> None:
        self._cardinalities: Dict[Tuple[str, str], int] = {}
        self._remote_latency: Dict[str, float] = {}
        self._observed_latency: Dict[str, float] = {}
        # Drivers currently marked UNavailable (circuit breaker open or
        # half-open).  Fed by the engine's breaker-event hook; consulted by
        # the planner so batched scans stop being routed at tripped sources.
        # Absence means available — the common case stays allocation-free.
        self._unavailable: set = set()
        # One lock guards EVERY mutable map (the _CompileCache discipline):
        # latency samples arrive from scheduler worker threads (a
        # ParallelExt body's scans all route through the engine's driver
        # executor) while the consumer thread registers drivers or the
        # planner reads — an unguarded dict being resized under a concurrent
        # read can raise, and the EMA's read-modify-write would lose samples.
        self._lock = threading.Lock()
        #: Bumped by every change the optimizer's rule sets can read — not by
        #: an observed latency sample unless it crosses the remote threshold:
        #: sessions key their prepared query forms on it.
        self.epoch = 0
        #: Called after each move of ``epoch``, outside the lock (an engine
        #: with a plan store journals the registry from it).
        self.on_epoch: Optional[Callable[[], None]] = None

    def _moved(self) -> None:
        hook = self.on_epoch
        if hook is not None:
            hook()

    def register_cardinality(self, driver: str, collection: str, rows: int) -> None:
        with self._lock:
            self._cardinalities[(driver, collection)] = rows
            self.epoch += 1
        self._moved()

    def cardinality(self, driver: str, collection: str = "") -> int:
        with self._lock:
            if (driver, collection) in self._cardinalities:
                return self._cardinalities[(driver, collection)]
            if (driver, "") in self._cardinalities:
                return self._cardinalities[(driver, "")]
            return self.DEFAULT_CARDINALITY

    def has_cardinality(self, driver: str, collection: str = "") -> bool:
        with self._lock:
            return (driver, collection) in self._cardinalities \
                or (driver, "") in self._cardinalities

    def register_latency(self, driver: str, seconds: float) -> None:
        with self._lock:
            self._remote_latency[driver] = seconds
            self.epoch += 1
        self._moved()

    def latency(self, driver: str) -> float:
        """Best latency estimate: the registered value, else the observed EMA
        once it is at or above :data:`REMOTE_LATENCY_THRESHOLD`, else 0.0.
        Below the threshold an observation is not planning knowledge: its
        samples move no epoch, so no plan may read them."""
        with self._lock:
            registered = self._remote_latency.get(driver)
            if registered is not None:
                return registered
            observed = self._observed_latency.get(driver, 0.0)
            return observed if observed >= self.REMOTE_LATENCY_THRESHOLD else 0.0

    def has_latency(self, driver: str) -> bool:
        """Is this driver's latency known: declared, or observed at or above
        the remote threshold (see :meth:`latency`)?  The planner treats
        either as source knowledge — including an explicit ``0.0``
        declaration, which is the operator *pinning* the driver local, not
        an absence of information."""
        with self._lock:
            return driver in self._remote_latency or self._observed_latency.get(
                driver, 0.0) >= self.REMOTE_LATENCY_THRESHOLD

    def record_latency_sample(self, driver: str, seconds: float) -> None:
        """Fold one observed request round-trip into the driver's latency EMA.

        The engine's driver executor calls this for every successful request
        it routes, so the estimate tracks the driver's actual behaviour with
        no per-driver configuration.  Sub-floor samples (lazy-cursor
        dispatches, see :data:`LATENCY_SAMPLE_FLOOR`) are discarded.
        """
        if seconds < self.LATENCY_SAMPLE_FLOOR:
            return
        with self._lock:
            previous = self._observed_latency.get(driver)
            weight = 1.0 if previous is None else self.LATENCY_SAMPLE_WEIGHT
            current = (previous or 0.0) * (1.0 - weight) + seconds * weight
            self._observed_latency[driver] = current
            threshold = self.REMOTE_LATENCY_THRESHOLD
            crossed = (current >= threshold) != ((previous or 0.0) >= threshold)
            if crossed:
                self.epoch += 1
        if crossed:
            self._moved()

    def observed_latency(self, driver: str) -> float:
        """The EMA of observed request round-trips (0.0 before any sample)."""
        with self._lock:
            return self._observed_latency.get(driver, 0.0)

    def set_available(self, driver: str, available: bool) -> None:
        """Mark a driver (un)available — the breaker's trip/close events.

        Availability is *advisory* planner knowledge, not an admission
        gate: requests still dispatch (and the breaker itself rejects
        them); the planner merely stops choosing batching-aggressive plans
        for a source the breaker has proved down.
        """
        with self._lock:
            if available:
                self._unavailable.discard(driver)
            else:
                self._unavailable.add(driver)
            self.epoch += 1
        self._moved()

    def is_available(self, driver: str) -> bool:
        """Is the driver's circuit closed (or breaker-less)?  Default True."""
        with self._lock:
            return driver not in self._unavailable

    def snapshot(self) -> Dict[str, object]:
        """A consistent plain-data export for the plan store.

        Only *learned* state is exported: registered cardinalities (an
        operator's declarations, worth sharing across workers) and the
        observed latency EMAs.  Registered latencies and breaker-fed
        availability are deliberately excluded — declarations belong to
        each process's configuration, and availability is live circuit
        state that must never outlive the breaker that proved it.
        """
        with self._lock:
            return {"cardinalities": [
                        [driver, collection, rows]
                        for (driver, collection), rows
                        in sorted(self._cardinalities.items())],
                    "observed_latency": dict(self._observed_latency)}

    def restore(self, state: Dict[str, object]) -> int:
        """Fill gaps from persisted state; what this process knows wins.

        A cardinality registered in this process, or a latency already
        observed here, is never overwritten by history.  Malformed entries
        are skipped, not raised.  Returns how many entries were adopted.
        """
        adopted = 0
        cardinalities = state.get("cardinalities") or []
        observed = state.get("observed_latency") or {}
        with self._lock:
            self.epoch += 1
            for entry in cardinalities:
                try:
                    driver, collection, rows = entry
                    key = (str(driver), str(collection))
                    rows = int(rows)
                except (TypeError, ValueError):
                    continue
                if key not in self._cardinalities:
                    self._cardinalities[key] = rows
                    adopted += 1
            for driver, ema in dict(observed).items():
                try:
                    driver = str(driver)
                    ema = float(ema)
                except (TypeError, ValueError):
                    continue
                if ema >= 0.0 and driver not in self._observed_latency:
                    self._observed_latency[driver] = ema
                    adopted += 1
        self._moved()
        return adopted

    def is_remote(self, driver: str) -> bool:
        """Is this driver remote, for the parallelism rules?

        A registered latency is an explicit declaration and always wins —
        including ``0.0``, which pins a driver local no matter how slow it
        is measured.  Without a declaration, a driver whose observed
        round-trip EMA exceeds :data:`REMOTE_LATENCY_THRESHOLD` is promoted
        to remote, so its inner loops get parallelised on later queries.
        """
        with self._lock:
            registered = self._remote_latency.get(driver)
            if registered is not None:
                return registered > 0.0
            return self._observed_latency.get(driver, 0.0) >= self.REMOTE_LATENCY_THRESHOLD
