"""The physical-plan chooser: per-query knobs from what the sources say.

"The optimizer chooses among physical strategies using knowledge about the
sources."  :class:`QueryPlanner` makes two kinds of choice:

* the one **compile-time knob** (whether/ how wide to introduce
  ``ParallelExt``) is wired into the optimizer rule set as a cost-gate
  callback (``make_parallel_rule_set(workers_for=...)``): a loop is as wide
  as the servers its body calls declare;
* the **run-time knobs**, the two maxima of the
  :class:`~repro.core.nrc.compile.ChunkPolicy` ramp (``max_chunk`` for
  local sources, ``remote_max_chunk`` for remote ones), travel on a
  :class:`PhysicalPlan` the engine attaches to the evaluation context per
  streamed run.  They come from rows — registered cardinalities, or the
  cardinality of an earlier drained run — and from declared latencies and
  batch economics; no stopwatch sets either.

The contract the differential tests pin: with **zero statistics** (nothing
registered, nothing observed, no feedback) every choice reproduces the
historical defaults bit-for-bit — the planner only ever *adds* knowledge,
never changes the uninformed baseline.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from .._fields import Fields
from ..nrc import ast as A
from ..nrc.compile import ChunkPolicy, term_fingerprint
from ..values import iter_collection
from .cardinality import CardinalityEstimator, collect_scans, scan_collection
from .cost import CostModel, pow2ceil
from .feedback import PlanFeedback, PlanObservation

__all__ = ["PhysicalPlan", "QueryPlanner"]


class PhysicalPlan(Fields, frozen=True):
    """One query's physical knobs (immutable; defaults == the constants
    every run used before the planner existed)."""

    max_chunk: int = ChunkPolicy.DEFAULT_MAX_CHUNK
    remote_max_chunk: int = ChunkPolicy.REMOTE_MAX_CHUNK
    #: Where the knobs came from: ``default`` | ``statistics`` | ``feedback``.
    source: str = "default"
    estimated_rows: Optional[float] = None

    @classmethod
    def default(cls) -> "PhysicalPlan":
        """The uninformed plan: today's constants, exactly."""
        return cls()

    @property
    def is_default(self) -> bool:
        return self.source == "default"

    def chunk_policy(self, is_remote: Optional[Callable[[str], bool]] = None
                     ) -> ChunkPolicy:
        """The plan's knobs as a run-time :class:`ChunkPolicy`."""
        return ChunkPolicy(max_chunk=self.max_chunk,
                           remote_max_chunk=self.remote_max_chunk,
                           is_remote=is_remote)

    def describe(self) -> Dict[str, object]:
        """A plain-dict view for benchmarks and the experiment log."""
        return {
            "source": self.source,
            "max_chunk": self.max_chunk,
            "remote_max_chunk": self.remote_max_chunk,
            "estimated_rows": self.estimated_rows,
        }


class QueryPlanner:
    """Chooses a :class:`PhysicalPlan` per query from statistics + feedback.

    ``statistics`` is the engine's
    :class:`~repro.kleisli.statistics.SourceStatisticsRegistry`;
    ``feedback`` the shared :class:`PlanFeedback` ledger;
    ``batches_natively`` an optional callable saying whether a driver's
    ``execute_batch`` is one wire round-trip (what makes raising
    ``remote_max_chunk`` pay — without it a bigger batch is the same number
    of round-trips); ``concurrency_of`` one giving the number of requests a
    driver's server declared it handles at once (``None``: undeclared).
    """

    #: Largest local chunk the planner will ramp to.
    MAX_LOCAL_CHUNK = 4096
    #: Candidate remote batch caps (bounded: one batch must never buffer an
    #: unbounded slice of a slow source, however good the latency math).
    REMOTE_CHUNK_CANDIDATES = (32, 64, 128, 256)
    #: Candidate-walk tie-breaker of the remote-cap chooser: take the
    #: SMALLEST candidate whose modeled cost is within this factor of the
    #: cheapest — savings justify buffering, buffering alone justifies nothing.
    REPLAN_SLACK = 1.05
    #: Sources with fewer estimated elements than this gain nothing from a
    #: parallel loop (the pool costs more than the overlap).
    MIN_PARALLEL_SOURCE = 2

    def __init__(self, statistics, feedback: Optional[PlanFeedback] = None,
                 parallel_max_workers: int = 5,
                 batches_natively: Optional[Callable[[str], bool]] = None,
                 concurrency_of: Optional[
                     Callable[[str], Optional[int]]] = None):
        self.statistics = statistics
        self.feedback = feedback
        self.parallel_max_workers = parallel_max_workers
        self.batches_natively = batches_natively or (lambda driver: False)
        self.concurrency_of = concurrency_of or (lambda driver: None)
        self.cardinality = CardinalityEstimator(statistics)
        self.cost = CostModel(statistics)
        #: How many plans were chosen, and how many left the defaults.
        self.plans_chosen = 0
        self.plans_default = 0

    # -- knowledge tests -----------------------------------------------------

    def _lookup(self, fingerprint: Tuple) -> Optional[PlanObservation]:
        if self.feedback is None:
            return None
        return self.feedback.lookup(fingerprint)

    def _has_source_statistics(self, scans) -> bool:
        for driver, collection in scans:
            if self.statistics.has_cardinality(driver, collection):
                return True
            if self.statistics.has_latency(driver):
                return True
        return False

    def _exact_rows(self, expr: A.Expr) -> Optional[float]:
        """A cardinality the planner *trusts* (registered or literal), or
        ``None``.  Compile-time gates key on this rather than the structural
        estimate so an uninformed query can never flip a compile-time knob."""
        node_type = type(expr)
        if node_type is A.Const:
            try:
                return float(len(list(iter_collection(expr.value))))
            except Exception:
                return None
        if node_type is A.Cached:
            return self._exact_rows(expr.expr)
        if node_type is A.Scan:
            collection = scan_collection(expr.request)
            if self.statistics.has_cardinality(expr.driver, collection):
                return float(self.statistics.cardinality(expr.driver, collection))
            return None
        return None

    # -- compile-time hooks (wired into the optimizer rule sets) -------------

    def _batched_scan_requests(self, expr: A.Expr, drivers) -> float:
        """Estimated requests the batched-scan stages will issue.

        The remote cap governs the ``Ext``-over-``Scan`` batching stage,
        whose request count is the *source* cardinality of each such site
        — NOT the query's output estimate (a selective downstream filter
        shrinks the output without removing a single scan request).
        Returns the largest such source estimate, 0.0 when no batching
        site exists.
        """
        requests = 0.0

        def walk(node: A.Expr) -> None:
            nonlocal requests
            if isinstance(node, A.Ext) and type(node.body) is A.Scan \
                    and node.body.driver in drivers:
                requests = max(requests, self.cardinality.estimate(node.source))
            for child in node.children():
                walk(child)

        walk(expr)
        return requests

    def _server_window(self, scans) -> Optional[int]:
        """How many requests the remote servers among ``scans`` take at once.

        The bound on a remote loop is its servers' (see
        :mod:`repro.core.optimizer.parallel`): the narrowest cap they
        declared.  ``None`` when one of them declared nothing: that loop's
        window moves, starting from ``parallel_max_workers`` — the paper's
        "say five".
        """
        caps = [self.concurrency_of(driver) for driver, _ in scans
                if self.statistics.is_remote(driver)]
        if not caps or None in caps:
            return None
        return min(caps)

    def parallel_workers(self, expr: A.Expr) -> Optional[int]:
        """Cost gate for introducing ``ParallelExt`` around ``expr``.

        ``0`` vetoes the rewrite (a source known to hold fewer than
        :data:`MIN_PARALLEL_SOURCE` elements cannot benefit from request
        overlap).  Otherwise the loop is as wide as the servers its body
        calls say they are (:meth:`_server_window`): narrower leaves a
        declared server idle, wider only queues at the engine's per-driver
        gate.  ``None`` — a server in the body declared no cap — keeps the
        rule set's configured worker count.
        """
        rows = self._exact_rows(expr.source)
        if rows is not None and rows < self.MIN_PARALLEL_SOURCE:
            return 0
        return self._server_window(collect_scans(expr.body))

    # -- the per-query run-time plan -----------------------------------------

    def plan_for(self, expr: A.Expr,
                 fingerprint: Optional[Tuple] = None) -> PhysicalPlan:
        """Choose run-time knobs for one (optimized) query.

        With no applicable knowledge the historical defaults come back
        unchanged (``plan.is_default``); with knowledge, every deviation is
        a cost-model choice — see the field-by-field notes inline.
        ``fingerprint`` lets a caller that already fingerprinted the term
        (the engine shares one with its feedback probe) skip the walk.
        """
        self.plans_chosen += 1
        if fingerprint is None:
            fingerprint = term_fingerprint(expr)
        observation = self._lookup(fingerprint)
        scans = collect_scans(expr)
        if observation is None and not self._has_source_statistics(scans):
            self.plans_default += 1
            return PhysicalPlan.default()

        rows = (observation.cardinality if observation is not None
                and observation.cardinality > 0
                else self.cardinality.estimate(expr))
        latency = 0.0
        batching_drivers = set()
        available = getattr(self.statistics, "is_available", None)
        for driver, _collection in scans:
            driver_latency = self.cost.driver_latency(driver)
            latency = max(latency, driver_latency)
            if (driver_latency >= self.cost.BATCH_LATENCY_THRESHOLD
                    and self.batches_natively(driver)
                    # A tripped breaker (registry availability) vetoes the
                    # batching-aggressive cap: routing bigger batches at a
                    # source the breaker proved down just buffers more
                    # elements behind the next rejection.
                    and (available is None or available(driver))):
                batching_drivers.add(driver)

        # Local ramp bound: raised past the old constant for known-huge
        # pipelines (up to MAX_LOCAL_CHUNK), never *lowered* — ``rows`` is
        # the OUTPUT estimate, but the bound governs every stage including
        # the source scan, and a selective query's small output says
        # nothing about how many source rows its scan must chunk through
        # (a lowered cap would self-throttle exactly such queries through
        # the feedback loop).  Small outputs simply never reach the cap.
        max_chunk = ChunkPolicy.DEFAULT_MAX_CHUNK
        if rows > 0:
            max_chunk = max(max_chunk,
                            min(self.MAX_LOCAL_CHUNK, pow2ceil(rows)))

        # Remote batch cap: when the slow driver ships a batch in ONE wire
        # round-trip, round-trip count dominates — take the SMALLEST
        # candidate whose modeled fetch cost sits within REPLAN_SLACK of
        # the cheapest (a fetch whose requests already fit a small batch
        # keeps the small, buffering-friendly cap; a big one earns the big
        # cap).  The request count is the batching stage's SOURCE estimate
        # (_batched_scan_requests) — the output estimate would undersize
        # the cap for selective queries.  A default-looping driver keeps
        # the bounded default: bigger batches would be the same round-trips.
        remote_max_chunk = ChunkPolicy.REMOTE_MAX_CHUNK
        if batching_drivers:
            requests = self._batched_scan_requests(expr, batching_drivers)
            if requests <= 0.0:
                # No Ext-over-Scan batching site: the cap would govern only
                # plain scan-cursor chunking, where batching never fires.
                requests = rows
            costs = {size: self.cost.batched_scan_cost(requests, size, latency)
                     for size in self.REMOTE_CHUNK_CANDIDATES}
            floor = min(costs.values())
            remote_max_chunk = min(
                size for size, cost in costs.items()
                if cost <= floor * self.REPLAN_SLACK)

        return PhysicalPlan(
            max_chunk=max_chunk,
            remote_max_chunk=remote_max_chunk,
            source="feedback" if observation is not None else "statistics",
            estimated_rows=rows,
        )
