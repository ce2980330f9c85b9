"""The physical-plan chooser: per-query knobs from what the sources say.

"The optimizer chooses among physical strategies using knowledge about the
sources."  :class:`QueryPlanner` makes two kinds of choice:

* the one **compile-time knob** (whether/ how wide to introduce
  ``ParallelExt``) is wired into the optimizer rule set as a cost-gate
  callback (``make_parallel_rule_set(workers_for=...)``): a loop is as wide
  as the servers its body calls declare;
* the one **run-time knob**, the remote maximum of the
  :class:`~repro.core.nrc.compile.ChunkPolicy` ramp (``remote_max_chunk``),
  travels on a :class:`PhysicalPlan` the engine attaches to the evaluation
  context per streamed run.  It comes from registered or observed
  statistics — cardinalities, latencies — and a driver's declared batch
  economics, by a closed form: a slow source that ships a batch in one
  round trip gets the smallest candidate cap that holds all its requests.
  There is no cost model to rank candidates, nothing a run drained
  re-plans the next one, and no stopwatch sets it.

The contract the differential tests pin: with **zero statistics** (nothing
registered, nothing observed) every choice reproduces the historical
defaults bit-for-bit — the planner only ever *adds* knowledge, never
changes the uninformed baseline.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .._fields import Fields
from ..nrc import ast as A
from ..nrc.compile import ChunkPolicy
from ..values import iter_collection
from .cardinality import CardinalityEstimator, collect_scans, scan_collection

__all__ = ["PhysicalPlan", "QueryPlanner"]


class PhysicalPlan(Fields, frozen=True):
    """One query's physical knob — the remote batch cap — with where it came
    from and the row estimate it rests on (immutable; the defaults are the
    constants every run used before the planner existed)."""

    remote_max_chunk: int = ChunkPolicy.REMOTE_MAX_CHUNK
    #: Where the knobs came from: ``default`` | ``statistics``.
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
        return ChunkPolicy(remote_max_chunk=self.remote_max_chunk,
                           is_remote=is_remote)

    def describe(self) -> Dict[str, object]:
        """A plain-dict view for benchmarks and the experiment log."""
        return {
            "source": self.source,
            "remote_max_chunk": self.remote_max_chunk,
            "estimated_rows": self.estimated_rows,
        }


class QueryPlanner:
    """Chooses a :class:`PhysicalPlan` per query from source statistics.

    ``statistics`` is the engine's
    :class:`~repro.kleisli.statistics.SourceStatisticsRegistry`;
    ``batches_natively`` an optional callable saying whether a driver's
    ``execute_batch`` is one wire round-trip (what makes raising
    ``remote_max_chunk`` pay — without it a bigger batch is the same number
    of round-trips); ``concurrency_of`` one giving the number of requests a
    driver's server declared it handles at once (``None``: undeclared).
    """

    #: Candidate remote batch caps (bounded: one batch must never buffer an
    #: unbounded slice of a slow source, however good the latency math).
    REMOTE_CHUNK_CANDIDATES = (32, 64, 128, 256)
    #: Driver round-trip latency (seconds) from which round trips dominate
    #: a batched scan, so the batch cap is sized to the requests.  Only a
    #: declared latency can fall between this and the registry's
    #: ``REMOTE_LATENCY_THRESHOLD``: an observed one below that reads 0.0.
    BATCH_LATENCY_THRESHOLD = 0.005
    #: Sources with fewer estimated elements than this gain nothing from a
    #: parallel loop (handing tasks to workers costs more than the overlap).
    MIN_PARALLEL_SOURCE = 2

    def __init__(self, statistics,
                 batches_natively: Optional[Callable[[str], bool]] = None,
                 concurrency_of: Optional[
                     Callable[[str], Optional[int]]] = None):
        self.statistics = statistics
        self.batches_natively = batches_natively or (lambda driver: False)
        self.concurrency_of = concurrency_of or (lambda driver: None)
        self.cardinality = CardinalityEstimator(statistics)

    # -- knowledge tests -----------------------------------------------------

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

    def _server_window(self, scans) -> Optional[int]:
        """How many requests the remote servers among ``scans`` take at once.

        The bound on a remote loop is its servers' (see
        :mod:`repro.core.optimizer.parallel`): the narrowest cap they
        declared.  ``None`` when one of them declared nothing: that loop's
        window moves, starting from the optimizer's
        ``parallel_max_workers`` — the paper's "say five".
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

    def plan_for(self, expr: A.Expr) -> PhysicalPlan:
        """Choose the run-time knob for one (optimized) query.

        With no statistics about the sources it scans the historical
        defaults come back unchanged (``plan.is_default``); otherwise the
        row estimate is the structural one over the registry's numbers, and
        the remote cap is sized to the requests (see the notes inline).
        """
        scans = collect_scans(expr)
        if not self._has_source_statistics(scans):
            return PhysicalPlan.default()

        rows = self.cardinality.estimate(expr)
        batching_drivers = set()
        available = getattr(self.statistics, "is_available", None)
        for driver, _collection in scans:
            if (self.statistics.latency(driver) >= self.BATCH_LATENCY_THRESHOLD
                    and self.batches_natively(driver)
                    # A tripped breaker (registry availability) vetoes the
                    # batching-aggressive cap: routing bigger batches at a
                    # source the breaker proved down just buffers more
                    # elements behind the next rejection.
                    and (available is None or available(driver))):
                batching_drivers.add(driver)

        # Remote batch cap: when the slow driver ships a batch in ONE wire
        # round-trip, round-trip count dominates — take the SMALLEST
        # candidate that holds every request in one batch, else the largest
        # (a fetch whose requests fit a small batch keeps the small,
        # buffering-friendly cap; a big one earns the big cap).  The
        # request count is the batching stage's SOURCE estimate
        # (_batched_scan_requests) — the output estimate would undersize
        # the cap for selective queries.  A default-looping driver keeps
        # the bounded default: bigger batches would be the same round-trips.
        remote_max_chunk = ChunkPolicy.REMOTE_MAX_CHUNK
        if batching_drivers:
            requests = _batched_scan_requests(expr, batching_drivers,
                                              self.cardinality.estimate)
            if requests <= 0.0:
                # No Ext-over-Scan batching site: the cap would govern only
                # plain scan-cursor chunking, where batching never fires.
                requests = rows
            remote_max_chunk = next(
                (size for size in self.REMOTE_CHUNK_CANDIDATES
                 if size >= max(requests, 1.0)),
                self.REMOTE_CHUNK_CANDIDATES[-1])

        return PhysicalPlan(remote_max_chunk=remote_max_chunk,
                            source="statistics", estimated_rows=rows)


def _batched_scan_requests(node: A.Expr, drivers, estimate) -> float:
    """Estimated requests the batched-scan stages will issue.

    The remote cap governs the ``Ext``-over-``Scan`` batching stage, whose
    request count is the *source* cardinality of each such site — NOT the
    query's output estimate (a selective downstream filter shrinks the
    output without removing a single scan request).  Returns the largest
    such source estimate, 0.0 when no batching site exists.
    """
    requests = 0.0
    if isinstance(node, A.Ext) and type(node.body) is A.Scan \
            and node.body.driver in drivers:
        requests = max(requests, estimate(node.source))
    for child in node.children():
        requests = max(requests, _batched_scan_requests(child, drivers, estimate))
    return requests
