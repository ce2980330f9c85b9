"""The Kleisli engine: drivers + optimizer + evaluator.

"CPL is implemented on top of an extensible query system called Kleisli ...
Routines within Kleisli manage optimization, query evaluation, and I/O from
remote and local data sources."  The engine is that middle layer:

* a **driver registry** — drivers are registered by name, contribute CPL
  functions and statistics, and are reached at run time through
  :meth:`driver_executor`, the callback every :class:`~repro.core.nrc.ast.Scan`
  node evaluates through;
* the **optimizer pipeline** (rebuilt whenever registration changes);
* the **cost-based planner** — the per-query remote batch cap chosen
  from registered/observed source statistics instead of a constant
  (:meth:`KleisliEngine.plan_for`; zero knowledge reproduces the historical
  defaults exactly);
* the **evaluator context** — the run's cached subqueries and statistics;
* ``execute`` / ``stream`` — eager evaluation and the pipelined variant that
  yields results as the outermost generator produces them (fast first
  response), both governed by the run options of :class:`QueryOptions`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from ..core._fields import Fields
from ..core.errors import (
    DeadlineExceededError,
    DriverNotRegisteredError,
    MemoryBudgetExceededError,
    QueryCancelledError,
)
from ..core.nrc import ast as A
from ..core.nrc.compile import (
    ChunkPolicy,
    CompiledChunkedStream,
    CompiledQuery,
    ExecutionMode,
    compile_chunked,
    compile_term,
    term_fingerprint,
)
from ..core.nrc.eval import (
    Environment,
    EvalContext,
    EvalStatistics,
    Evaluator,
    close_source,
    iterate_source,
    materialise,
)
from ..core.nrc.rewrite import RewriteStats
from ..core.optimizer import OptimizerConfig, OptimizerPipeline, ScanSpec
from ..core.planner import PhysicalPlan, PlanStore, QueryPlanner
from ..core.values import CBag, CList, CSet, iter_collection
from ..obs import Observability
from ..obs.metrics import RowWidthEstimator
from ..obs.profile import ProbeTee, QueryProfile, StageCollector, aggregate_driver_spans
from ..obs.trace import QueryTrace
from .drivers.base import Driver, DriverFunction
from .governance import (
    NOMINAL_ROW_BYTES,
    CancellationToken,
    MemoryBudget,
    QueryGovernor,
)
from .resilience import CircuitBreaker, CircuitBreakerPolicy, ResilienceLayer, RetryPolicy
from .statistics import SourceStatisticsRegistry

if TYPE_CHECKING:
    from .spill import SpillManager

__all__ = ["KleisliEngine", "ExecutionMode", "QueryOptions"]

#: Taken only to start an engine's worker set, once.
_WORKER_SET_LOCK = threading.Lock()

#: How many lowered queries (eager + streaming together) the engine keeps;
#: the least recently used entry is evicted when the cache is full.
_COMPILED_CACHE_LIMIT = 128


class _CompileCache:
    """A fingerprint-keyed LRU of lowered queries, shared by both targets.

    Keys are ``(target, term_fingerprint(expr))`` where ``target`` is
    ``"eager"`` (:class:`CompiledQuery`) or ``"chunked"``
    (:class:`CompiledChunkedStream`), so the two lowerings of one term
    coexist without conflation.  A fingerprint is one flat tuple of tokens,
    not a tuple per node, so a key grows by a pointer per token.  A hit
    moves the entry to the most-recently-used position; insertion past
    ``limit`` evicts only the least recently used entry — not the whole
    cache, as the pre-LRU memo did.

    **Admission.**  The engine keeps a lowered query from its second
    lowering on (:meth:`admit`): the first leaves only the ``hash`` of its
    key in a doorkeeper, an LRU of at most ``limit`` ints, and the second
    finds it there and is kept.  A query sent once (an ad-hoc text) leaves
    one int behind instead of its closures and its fingerprint; one sent
    again is lowered twice and hits from its third run.  A session's
    prepared forms go in with :meth:`put` and never pass the doorkeeper.

    All operations hold a lock: scheduler worker threads compile through
    the one engine (a ``ParallelExt`` body's subqueries, cross-session
    reuse), and an unlocked ``OrderedDict`` being reordered by ``get`` while
    another thread inserts can corrupt the linked list — and the hit/miss
    counters' read-modify-writes would under-count.
    """

    __slots__ = ("limit", "hits", "misses", "evictions", "_entries", "_seen",
                 "_lock")

    def __init__(self, limit: int = _COMPILED_CACHE_LIMIT):
        self.limit = limit
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        #: The doorkeeper: hashes of keys lowered once and not kept.
        self._seen: "OrderedDict[int, None]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Tuple) -> Optional[object]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Tuple, value: object) -> None:
        with self._lock:
            self._put_locked(key, value)

    def admit(self, key: Tuple, value: object) -> None:
        """Keep ``value`` under ``key`` if the key was offered before (see
        Admission above); else remember only the key's hash."""
        seen = hash(key)
        with self._lock:
            if seen in self._seen:
                del self._seen[seen]
                self._put_locked(key, value)
                return
            self._seen[seen] = None
            if len(self._seen) > self.limit:
                self._seen.popitem(last=False)

    def _put_locked(self, key: Tuple, value: object) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._seen.clear()


class _DriverGate:
    """At most ``cap`` requests of one driver in flight, engine-wide.

    The cap is the server's (the paper: "the server S may only be able to
    handle a limited number of requests at a time, say five"), so it bounds
    the *sum* over every parallel loop and session sharing the engine, not
    each loop.  A request that finds the server full waits its turn instead
    of being rejected; the wait wakes every :data:`POLL_SECONDS` to notice
    that its run was cancelled or ran out of time.
    """

    POLL_SECONDS = 0.02

    __slots__ = ("cap", "in_flight", "_slots")

    def __init__(self, cap: int):
        self.cap = cap
        self.in_flight = 0
        self._slots = threading.Condition()

    def enter(self, driver_name: str, context: Optional[EvalContext],
              clock: Callable[[], float]) -> None:
        token = None if context is None else context.cancellation
        deadline = None if context is None else context.deadline
        with self._slots:
            while self.in_flight >= self.cap:
                if token is not None:
                    token.raise_if_cancelled()
                if deadline is not None and clock() > deadline:
                    raise DeadlineExceededError(driver_name)
                self._slots.wait(self.POLL_SECONDS)
            self.in_flight += 1

    def leave(self) -> None:
        with self._slots:
            self.in_flight -= 1
            self._slots.notify()


class QueryOptions(Fields, frozen=True):
    """The eight run options, declared, documented and checked here only.

    ``execute``, ``stream`` and the session's ``run``, ``query`` and
    ``stream`` take all eight by keyword; the wire client's ``run``,
    ``query``, ``open`` and ``stream`` take the five that cross the wire
    (not ``mode``, ``cancellation`` or ``chunk_policy``).  The engine builds
    one value per run, its own defaults filled in, and hands it along.

    * ``mode`` — the :class:`ExecutionMode` (``"compiled"`` lowers the term
      to closures first, ``"interpret"`` tree-walks it); ``None`` is the
      engine's.
    * ``deadline`` — seconds that bound the whole run's driver work.
    * ``on_source_failure`` — ``"fail"`` propagates a source that stays
      down after retries, ``"degrade"`` completes a federated run with
      typed partial-result warnings; ``None`` is the session's, else the
      engine's.
    * ``cancellation`` — a
      :class:`~repro.kleisli.governance.CancellationToken` checked at every
      evaluation checkpoint and before every driver dispatch.
    * ``memory_budget`` — caps the run's materialization: an ``int`` of
      bytes, or a prebuilt (e.g. session-scoped)
      :class:`~repro.kleisli.governance.MemoryBudget`.  A session's quota
      applies when the call gives none.
    * ``spill`` — the backend for the big materialization points: ``None``
      lets the cost model decide (estimated rows vs. the budget), ``True``
      forces disk, ``False`` forbids it (over budget then raises
      :class:`~repro.core.errors.MemoryBudgetExceededError`).  Spill
      applies to the compiled lowerings; the interpreter honours token and
      budget only.
    * ``profile`` — ``True`` attaches an EXPLAIN ANALYZE recorder: the value
      is unchanged, and the :class:`~repro.obs.profile.QueryProfile` lands
      on ``last_profile`` / :meth:`KleisliEngine.thread_profile`.  With a
      hub attached every run is profiled anyway.
    * ``chunk_policy`` — the :class:`ChunkPolicy` of the compiled
      lowerings' chunks and remote batches; ``None`` is the run's physical
      plan's (remote sources keep small chunks, local ones ramp to the
      maximum).  ``ChunkPolicy(max_chunk=1)`` streams element at a time.

    A bad ``on_source_failure`` raises ``ValueError``, then a bad ``mode``
    :class:`~repro.core.errors.EvaluationError`, before a run opens.
    """

    mode: Optional[object] = None
    deadline: Optional[float] = None
    on_source_failure: Optional[str] = None
    cancellation: Optional[CancellationToken] = None
    memory_budget: object = None
    spill: Optional[bool] = None
    profile: bool = False
    chunk_policy: Optional[ChunkPolicy] = None

    def __post_init__(self):
        policy = self.on_source_failure
        if policy is not None and policy not in ("fail", "degrade"):
            raise ValueError(
                f"on_source_failure must be 'fail' or 'degrade', got {policy!r}")
        if self.mode is not None:
            object.__setattr__(self, "mode", ExecutionMode.coerce(self.mode))


class _QueryRun:
    """One run that has something to settle: opened in one place (the
    constructor), settled in one place (:meth:`finish`), which every ending
    of the run reaches exactly once.  The constructor puts ``finish`` on the
    run's context: ``execute`` calls it there, and a streamed run's one
    generator calls it at its exit.  ``finish`` takes itself off the context,
    so a settled run leaves no cycle behind."""

    __slots__ = ("engine", "context", "collector", "estimated_rows",
                 "started")

    def __init__(self, engine: "KleisliEngine", expr: A.Expr,
                 plan: Optional[PhysicalPlan], options: QueryOptions):
        """Open the run on ``expr``, the term that is evaluated (already
        optimized): its own budget child; the plan (``stream``'s physical
        plan, else — when something will read it — the planner's for this
        term); the spill decision; the trace (hub-recorded, profile-only, or
        none); the context.  Nothing that can raise follows the trace."""
        self.engine = engine
        budget = engine._resolve_budget(options.memory_budget)
        hub = engine.observability
        if (plan is None and engine.optimizer_config.planning
                and (hub is not None or options.profile
                     or (options.spill is None and budget is not None))):
            plan = engine.planner.plan_for(expr)
        #: One term, one estimate (``None``: the planner knows nothing): the
        #: number that gates auto-spill is the one EXPLAIN ANALYZE prints.
        self.estimated_rows = None if plan is None else plan.estimated_rows
        spill_manager = engine._resolve_spill(options.spill, budget, plan)
        if hub is not None:
            trace: Optional[QueryTrace] = hub.tracer.start("query")
        else:
            trace = QueryTrace("query") if options.profile else None
        self.context = context = engine._make_context(options, budget,
                                                      spill_manager)
        context.trace = trace
        context.finish = self.finish
        #: A traced run's per-stage sink: the chunked pump's timings go to it
        #: and, with a hub, to the chunk-size histogram.  Only this sink
        #: makes the pump read a clock per chunk.
        self.collector = None if trace is None else StageCollector()
        if trace is not None:
            context.chunk_sink = ProbeTee(self.collector) if hub is None \
                else ProbeTee(self.collector, hub.chunk_sink())
        self.started = 0.0 if trace is None else time.perf_counter()

    def finish(self, error: Optional[BaseException] = None,
               actual_rows: Optional[float] = None) -> None:
        """Settle the run; idempotent.  ``error`` is what ended it (``None``:
        it completed; ``GeneratorExit``: its consumer let go).

        The order is the point.  The **profile** first: it copies the spill
        books off the still-open manager, which the settlement two steps
        down deletes.  Then the **outcome** for the governance ledger: a
        typed budget rejection, else a cancellation — the typed error, or
        any unfinished ending of a run whose token was cancelled (the
        server's ``cancel`` op tears a cursor down without draining into
        the error).  Then the **spill settlement**: the books feed the
        row-width model (each spilled frame knows its bytes *and* rows),
        the hub's spilled-bytes histogram and the engine ledger, and the
        files are deleted.  Last the **budget**: the run's child closes and
        whatever it still holds flows back to its ancestors.
        """
        engine, context = self.engine, self.context
        if context.finish is None:
            return
        context.finish = None
        hub = engine.observability
        spill_manager, trace = context.spill, context.trace
        try:
            if trace is not None:
                trace.finish("ok" if error is None else "error")
                trace_dict = trace.as_dict()
                plan = context.physical_plan
                collector = self.collector
                profile = QueryProfile(
                    mode=context.statistics.execution_mode or "unknown",
                    plan=None if plan is None else plan.describe(),
                    estimated_rows=self.estimated_rows,
                    actual_rows=actual_rows,
                    elapsed=time.perf_counter() - self.started,
                    stages={} if collector is None else collector.stages(),
                    drivers=aggregate_driver_spans(trace_dict),
                    statistics=context.statistics.as_dict(),
                    books=({} if spill_manager is None
                           else dict(spill_manager.books)),
                    trace=trace_dict,
                    status=("ok" if error is None
                            else "closed" if isinstance(error, GeneratorExit)
                            else type(error).__name__))
                engine.last_profile = profile
                engine._thread_profiles.value = profile
                if hub is not None:
                    hub.slow_queries.record(profile)
            token = context.cancellation
            outcome = None
            if isinstance(error, MemoryBudgetExceededError):
                outcome = "budget_rejections"
            elif isinstance(error, QueryCancelledError) or (
                    error is not None and token is not None
                    and token.cancelled):
                outcome = "cancellations"
            if outcome is not None:
                engine.governor.count(outcome)
        finally:
            # What the run holds goes back even if the bookkeeping above
            # fails: pool capacity and disk outlive no run.
            if spill_manager is not None:
                books = spill_manager.books
                rows = books.get("rows_spilled", 0)
                nbytes = books.get("bytes_spilled", 0)
                if rows:
                    engine.row_width.observe(nbytes, rows)
                if nbytes and hub is not None:
                    hub.spilled_bytes.observe(nbytes)
                engine.governor.merge(books)
                spill_manager.close()
            if context.memory_budget is not None:
                context.memory_budget.close()


class KleisliEngine:
    """Driver registry, optimizer and evaluator in one object."""

    def __init__(self, optimizer_config: Optional[OptimizerConfig] = None,
                 execution_mode: object = ExecutionMode.COMPILED,
                 plan_store: Optional[PlanStore] = None,
                 memory_pool_limit: Optional[int] = None):
        self.drivers: Dict[str, Driver] = {}
        #: One in-flight gate per driver that declared a concurrency cap
        #: (``driver.remote.max_concurrent_requests``).  A driver with no
        #: declaration has no entry and dispatches exactly as before.
        self.driver_gates: Dict[str, _DriverGate] = {}
        self.driver_functions: Dict[str, Tuple[Driver, DriverFunction]] = {}
        self.statistics_registry = SourceStatisticsRegistry()
        self.optimizer_config = optimizer_config or OptimizerConfig()
        #: The cost-based planner.  Its compile-time hook gates parallel
        #: introduction inside the optimizer; :meth:`plan_for` asks it for
        #: the run-time knob per query.  With zero statistics it reproduces
        #: the historical constants exactly.
        self.planner = QueryPlanner(
            self.statistics_registry,
            batches_natively=self._driver_batches_natively,
            concurrency_of=lambda name: getattr(
                self.driver_gates.get(name), "cap", None))
        self.last_plan: Optional[PhysicalPlan] = None
        self._optimizer_builds = 0
        self._rebuild_optimizer()
        self.execution_mode = ExecutionMode.coerce(execution_mode)
        #: The driver resilience layer (retries, breakers, deadlines,
        #: mid-stream recovery).  Default-off: a driver with no configured
        #: policy dispatches exactly as before, so zero-fault runs are
        #: bit-for-bit unchanged.  Configure via :meth:`configure_resilience`.
        self.resilience = ResilienceLayer()
        self.resilience.gates = self.driver_gates
        self.resilience.on_breaker_event = self._note_breaker_event
        #: The governance ledger (cancellations, spills, budget rejections,
        #: watchdog kills) plus the optional engine-wide memory pool that
        #: per-query budgets parent into.  With no ``memory_pool_limit`` and
        #: no per-run governance arguments, every run takes exactly the
        #: ungoverned code paths (the zero-governance contract).
        self.governor = QueryGovernor(memory_pool_limit)
        #: The observability hub (metrics + tracer + slow-query log), or
        #: ``None`` — the zero-recorder contract: with no hub attached and
        #: ``profile=False``, every run takes the exact pre-observability
        #: code paths.  Attach via :meth:`attach_observability`.
        self.observability: Optional[Observability] = None
        #: The sampled row-width model feeding the governance spill gate.
        #: Fed from spill bookkeeping (bytes *and* rows per spilled frame);
        #: with zero samples it returns ``NOMINAL_ROW_BYTES`` verbatim, so
        #: an engine that never spilled gates exactly like the historical
        #: constant.
        self.row_width = RowWidthEstimator(NOMINAL_ROW_BYTES)
        #: The most recent :class:`~repro.obs.profile.QueryProfile` (EXPLAIN
        #: ANALYZE record) any observed/profiled run produced, plus a
        #: thread-local mirror for shared-engine servers (same rationale as
        #: ``_thread_statistics``).
        self.last_profile: Optional[QueryProfile] = None
        self._thread_profiles = threading.local()
        #: Engine-wide default for ``on_source_failure`` when a run does not
        #: choose: ``"fail"`` propagates source failures, ``"degrade"``
        #: completes federated runs with typed partial-result warnings.
        self.on_source_failure = "fail"
        self.last_eval_statistics: Optional[EvalStatistics] = None
        self.last_rewrite_stats: Optional[RewriteStats] = None
        # Thread-local mirror of last_eval_statistics: on a shared engine,
        # concurrent sessions overwrite the engine-wide attribute, so a
        # server thread that needs ITS run's statistics (degradation
        # warnings on the wire) reads thread_eval_statistics() instead.
        self._thread_statistics = threading.local()
        self._compiled_queries = _CompileCache(_COMPILED_CACHE_LIMIT)
        #: The one set of worker threads every remote loop of every run
        #: hands its tasks to (:meth:`_worker_set`), or ``None`` until the
        #: first loop that overlaps anything.
        self._workers = None
        #: The crash-safe persistence layer for the statistics registry's
        #: learned state.  ``None`` (the default) means no persistence at
        #: all — the engine behaves exactly as before the store existed.
        self.plan_store: Optional[PlanStore] = None
        if plan_store is not None:
            self.attach_plan_store(plan_store)

    # -- plan-store wiring -----------------------------------------------------

    def attach_plan_store(self, store: PlanStore) -> None:
        """Attach a persistence store: warm-start now, write after.

        Fills the statistics registry's gaps from whatever the store
        recovered (what this process already knows wins), then merges the
        registry into the store's snapshot each time its ``epoch`` moves —
        a registered statistic, an observed latency crossing the remote
        threshold — so a process killed without a flush still leaves its
        promotions behind.  Loading never raises on corrupt storage — the
        zero-knowledge contract: an engine attached to a
        missing/empty/corrupt store plans exactly like a storeless one.
        """
        registry = self.statistics_registry
        self.plan_store = store
        registry.restore(store.load())
        registry.on_epoch = lambda: store.write(registry.snapshot())

    def flush_plan_store(self) -> None:
        """Write the registry to the attached store, if any.

        The shutdown/drain hook: the server calls this at the end of a
        graceful stop.  Between flushes the store is written each time the
        statistics registry's ``epoch`` moves.  A storeless engine no-ops.
        """
        if self.plan_store is not None:
            self.plan_store.write(self.statistics_registry.snapshot())

    # -- driver registration ---------------------------------------------------------

    def register_driver(self, driver: Driver, latency: Optional[float] = None) -> Driver:
        """Register a driver; its CPL functions and statistics become available.

        ``latency`` (seconds) marks the driver as remote in the statistics
        registry, which is what the parallelism rules key on.  A driver that
        declares its server's concurrency cap gets an in-flight gate of that
        width at the dispatch choke point.
        """
        self.drivers[driver.name] = driver
        cap = getattr(getattr(driver, "remote", None),
                      "max_concurrent_requests", None)
        if cap is not None:
            self.driver_gates[driver.name] = _DriverGate(cap)
        else:
            self.driver_gates.pop(driver.name, None)
        driver.open()
        for function in driver.cpl_functions():
            self.driver_functions[function.name] = (driver, function)
        for collection in driver.collection_names():
            cardinality = driver.cardinality(collection)
            if cardinality is not None:
                self.statistics_registry.register_cardinality(driver.name, collection, cardinality)
        if latency is not None:
            self.statistics_registry.register_latency(driver.name, latency)
        elif getattr(driver, "remote", None) is not None:
            self.statistics_registry.register_latency(driver.name, driver.remote.latency)
        self._rebuild_optimizer()
        return driver

    def unregister_driver(self, name: str) -> None:
        driver = self.drivers.pop(name, None)
        if driver is None:
            raise DriverNotRegisteredError(name)
        driver.close()
        self.driver_gates.pop(name, None)
        self.driver_functions = {
            fname: (drv, fn) for fname, (drv, fn) in self.driver_functions.items()
            if drv.name != name
        }
        self._rebuild_optimizer()

    def driver(self, name: str) -> Driver:
        try:
            return self.drivers[name]
        except KeyError:
            raise DriverNotRegisteredError(name)

    def _driver_batches_natively(self, name: str) -> bool:
        """Does this driver ship a whole ``execute_batch`` in one round-trip?

        What makes raising the remote batch cap pay for the planner: a
        default-looping driver performs the same round-trips however the
        requests are batched, so only a native single-round-trip batch
        earns a bigger cap.
        """
        driver = self.drivers.get(name)
        return (driver is not None
                and type(driver).execute_batch is not Driver.execute_batch
                and driver.batch_single_round_trip)

    # -- optimizer wiring ---------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Changes whenever the optimizer may rewrite a term differently: at
        every (un)registration and every statistics change its rule sets
        read.  A session's prepared query forms are keyed on it."""
        return self._optimizer_builds + self.statistics_registry.epoch

    def _rebuild_optimizer(self) -> None:
        registry = {
            fname: ScanSpec(driver.name, function.request_template,
                            function.argument_key, function.argument_is_record,
                            function.result_kind)
            for fname, (driver, function) in self.driver_functions.items()
        }
        capabilities = {name: driver.capabilities for name, driver in self.drivers.items()}
        self.optimizer = OptimizerPipeline(
            function_registry=registry,
            capabilities=capabilities,
            is_remote_driver=self.statistics_registry.is_remote,
            config=self.optimizer_config,
            planner=self.planner,
        )
        self._optimizer_builds += 1     # after: a new epoch means a new optimizer

    # -- compilation and execution ----------------------------------------------------------

    def compile(self, expr: A.Expr, collect_stats: bool = True) -> A.Expr:
        """Optimize an NRC expression with the current rule sets."""
        stats = RewriteStats() if collect_stats else None
        optimized = self.optimizer.optimize(expr, stats)
        self.last_rewrite_stats = stats
        return optimized

    # benchmarks/e2e/tracing.py patches this name; ROADMAP direction 2(b) removes it.
    compile_for_stream = compile

    def configure_resilience(self, driver_name: str,
                             retry: Optional[RetryPolicy] = None,
                             breaker: Optional[CircuitBreakerPolicy] = None) -> None:
        """Install a retry policy and/or circuit breaker for one driver.

        Passing neither removes the configuration: the driver returns to
        raw pass-through dispatch (the default for every driver).
        """
        self.resilience.set_policy(driver_name, retry, breaker)

    def _note_breaker_event(self, driver_name: str, state: str) -> None:
        """Breaker state changes feed the planner's availability view.

        An open (or half-open, still-probing) breaker marks the source
        unavailable in the statistics registry, so :meth:`plan_for` stops
        routing batched scans at it; re-closing restores availability.
        With a hub attached, every transition also bumps the breaker
        counter.
        """
        self.statistics_registry.set_available(
            driver_name, state == CircuitBreaker.CLOSED)
        hub = self.observability
        if hub is not None:
            hub.breaker_transitions.inc()

    # -- observability wiring ---------------------------------------------------

    def attach_observability(self, hub: Optional[Observability]) -> Optional[Observability]:
        """Attach (or, with ``None``, detach) the observability hub.

        While attached, every run is traced, the standard instruments are
        fed from the engine/server hook sites, and completed runs are
        considered for the slow-query log.  Detached (the default), every
        hook site short-circuits on ``None`` — the zero-recorder contract,
        differential-pinned by the test suite.
        """
        self.observability = hub
        return hub

    def thread_profile(self) -> Optional[QueryProfile]:
        """The profile of the last observed run *started on this thread*."""
        return getattr(self._thread_profiles, "value", None)

    def driver_executor(self, driver_name: str, request: Mapping[str, object],
                        context: Optional[EvalContext] = None):
        """The Scan callback: route a request to the named driver.

        Dispatch runs through the resilience layer — retries, per-request
        timeouts, the per-query deadline on ``context``, circuit breaking,
        mid-stream recovery wrapping, degradation — which is pure
        pass-through for drivers with no configured policy.  ``context``
        (bound per run by :meth:`_make_context`) carries the deadline and
        failure policy; direct callers may omit it.

        A cancelled run never dispatches another request: the token is
        checked *before* the resilience layer, so cancellation beats retry
        loops and degradation alike — no driver round-trip is wasted on a
        query nobody is waiting for.

        A driver with a declared concurrency cap is dispatched holding one
        slot of its :class:`_DriverGate` per round trip (waiting for one if
        the server is full): the resilience layer, which shares
        :attr:`driver_gates`, takes it around every raw attempt — the first,
        each retry and each mid-stream re-issue — so none of them can exceed
        the cap, and a retry's backoff sleep holds no slot.
        """
        if context is not None and context.cancellation is not None:
            context.cancellation.raise_if_cancelled()
        trace = None if context is None else context.trace
        if trace is None:
            return self.resilience.execute(driver_name, request,
                                           self._raw_execute, context)
        with trace.span(driver_name, "driver"):
            return self.resilience.execute(driver_name, request,
                                           self._raw_execute, context)

    def _raw_execute(self, driver_name: str, request: Mapping[str, object]):
        """One raw driver round-trip (what the resilience layer retries).

        Every *successful* request's round-trip is folded into the
        statistics registry's observed-latency EMA, so a driver nobody
        declared remote but whose requests are measured slow is treated as
        remote by the parallelism rules on later compilations (lazy cursors
        dispatch in ~0s and stay local; their per-element latency is paid
        during consumption).  Failures are excluded: an overloaded remote
        server rejecting in ~1 ms would otherwise drag the EMA *down* and
        demote exactly the driver that most needs request overlap — for the
        same reason, a retried request contributes one sample per
        *successful* attempt, never its failed tries.
        """
        driver = self.driver(driver_name)
        hub = self.observability
        started = time.perf_counter()
        try:
            result = driver.execute(request)
        except Exception:
            if hub is not None:
                hub.observe_request(time.perf_counter() - started, failed=True)
            raise
        elapsed = time.perf_counter() - started
        self.statistics_registry.record_latency_sample(driver_name, elapsed)
        if hub is not None:
            hub.observe_request(elapsed)
        return result

    def driver_executor_batch(self, driver_name: str,
                              requests: Sequence[Mapping[str, object]],
                              context: Optional[EvalContext] = None) -> List[object]:
        """The batched Scan callback: a whole chunk's requests in one call.

        A driver that left :meth:`~repro.kleisli.drivers.base.Driver.execute_batch`
        at its default (loop over ``execute``) is dispatched per request
        through :meth:`driver_executor` — identical behavior, but every
        round-trip feeds the observed-latency EMA, so a slow undeclared
        driver reached only through batched body scans is still promoted to
        remote (and its later batches capped at ``remote_max_chunk``)
        exactly as under per-element dispatch.  A driver with a *native*
        ``execute_batch`` gets the one call; whether it yields a latency
        sample depends on the driver's declared batch economics
        (``batch_single_round_trip``): one-wire-call batches record nothing
        — a batch elapsed time has no sound per-request decomposition, and
        a mean-per-request sample would decay a genuinely remote driver's
        EMA below the promotion threshold as batches grow — while native
        batches that still do per-request work (the flat-file driver's
        cached reads) record the mean, which IS their true per-request cost.

        A *failed* native batch no longer poisons its siblings: the batch is
        decomposed and re-dispatched per request through
        :meth:`driver_executor`, so only the genuinely bad request fails
        (and, with a retry policy or degradation configured, may not fail at
        all — a whole-batch cap rejection retries per request).  The
        re-dispatched requests are real per-request round-trips, so their
        EMA samples follow the per-request rule above.

        A native batch is one wire message and holds one slot of the
        driver's gate (see :meth:`driver_executor`); the slot is returned
        before a failed batch is re-dispatched, so the per-request retries
        queue for slots like any other request.
        """
        if context is not None and context.cancellation is not None:
            context.cancellation.raise_if_cancelled()
        driver = self.driver(driver_name)
        if not requests:
            return []
        if type(driver).execute_batch is Driver.execute_batch:
            return [self.driver_executor(driver_name, request, context)
                    for request in requests]
        trace = None if context is None else context.trace
        span = (None if trace is None
                else trace.begin(driver_name, "driver-batch",
                                 requests=len(requests)))
        started = time.perf_counter()
        gate = self.driver_gates.get(driver_name)
        try:
            if gate is None:
                results = list(driver.execute_batch(requests))
            else:
                gate.enter(driver_name, context, self.resilience.clock)
                try:
                    started = time.perf_counter()   # queueing is not latency
                    results = list(driver.execute_batch(requests))
                finally:
                    gate.leave()
        except Exception:
            if span is not None:
                trace.end(span, status="error")
            return [self.driver_executor(driver_name, request, context)
                    for request in requests]
        if span is not None:
            trace.end(span)
        if not driver.batch_single_round_trip:
            self.statistics_registry.record_latency_sample(
                driver_name, (time.perf_counter() - started) / len(requests))
        return results

    def health(self) -> Dict[str, object]:
        """A consistent snapshot of the engine's *shared* structures.

        This is what the query service's ``stats`` op reports, and what the
        multi-session soak tests assert consistency on: every counter here
        belongs to state that concurrent sessions share (the compile-cache
        LRU, per-driver request counts) or to process-wide resource accounting
        (:meth:`~repro.core.nrc.eval.EvalScope.live_count` — open pipelined
        runs; zero when every cursor has been released).  Per-session state
        (CPL definitions, type environments, ``EvalScope`` contents) never
        appears here — it dies with the session.
        """
        from ..core.nrc.eval import EvalScope

        cache = self._compiled_queries
        return {
            "compile_cache": {
                "hits": cache.hits, "misses": cache.misses,
                "evictions": cache.evictions, "size": len(cache),
                "limit": cache.limit,
            },
            "drivers": {name: driver.request_count
                        for name, driver in self.drivers.items()},
            "live_scopes": EvalScope.live_count(),
            # Per-driver resilience books: retry/timeout/recovery counters
            # and breaker state (``None`` breaker = no breaker configured).
            # Only drivers with a policy, breaker, or recorded activity
            # appear; an unconfigured engine reports {}.
            "resilience": self.resilience.snapshot(),
            # The plan store's account: what loaded, what was refused as
            # corrupt, what was written.  ``{"attached": False}`` when no
            # store is configured.
            "persistence": (self.plan_store.books()
                            if self.plan_store is not None
                            else {"attached": False}),
            # The governance books: cancellations, spills, bytes spilled,
            # budget rejections, watchdog kills — plus pool usage when an
            # engine-wide memory pool is configured.  All zeros on an
            # ungoverned engine.
            "governance": self.governor.snapshot(),
            # The observability hub's account (tracer, slow-query log) —
            # ``{"attached": False}`` with no hub — and the sampled
            # row-width model behind the spill gate.
            "observability": (self.observability.snapshot()
                              if self.observability is not None
                              else {"attached": False}),
            "row_width": self.row_width.snapshot(),
        }

    def plan_for(self, expr: A.Expr) -> PhysicalPlan:
        """The cost-based physical plan for one (optimized) query.

        Consults registered/observed source statistics; with
        ``OptimizerConfig.planning`` off — or nothing known — the historical
        default knobs come back unchanged.  The chosen plan is recorded on
        ``last_plan`` for inspection.
        """
        if self.optimizer_config.planning:
            plan = self.planner.plan_for(expr)
        else:
            plan = PhysicalPlan.default()
        self.last_plan = plan
        return plan

    def _worker_set(self):
        """The engine's worker threads (:mod:`repro.kleisli.scheduler`).

        Started by the first remote loop, not before: a local query never
        imports the scheduler.  It holds as many threads as the engine's
        servers admit at once — each declared cap, plus one window of
        ``parallel_max_workers`` for a server that declared none — read
        again at every loop, so a driver registered later widens it.
        """
        with _WORKER_SET_LOCK:
            if self._workers is None:
                from .scheduler import _Workers
                self._workers = _Workers(0)
        self._workers.size = self.optimizer_config.parallel_max_workers + sum(
            gate.cap for gate in list(self.driver_gates.values()))
        return self._workers

    def _options(self, options: Dict[str, object]) -> QueryOptions:
        """A call's options with the engine's defaults filled in: its
        ``on_source_failure`` and execution mode where the call (which
        already carries a session's defaults) gives none.

        First thing on both entry points, before a trace, a budget or a
        context exists, so a bad value leaves nothing to settle.  An
        unknown name is a ``TypeError``.
        """
        if options.get("on_source_failure") is None:
            options["on_source_failure"] = self.on_source_failure
        if options.get("mode") is None:
            options["mode"] = self.execution_mode
        return QueryOptions(**options)

    def _make_context(self, options: QueryOptions,
                      memory_budget: Optional[MemoryBudget] = None,
                      spill_manager: Optional[SpillManager] = None
                      ) -> EvalContext:
        """One run's ambient context, with its resilience parameters bound.

        The ``deadline`` is a *relative* budget in seconds, converted to an
        absolute deadline on the resilience layer's clock here, when the
        run starts.  The context binds the Scan callbacks to itself at each
        dispatch (no stored closure, so no cycle): the resilience layer sees
        the run's deadline and failure policy, while the engine methods keep
        their context-free signatures for direct callers.  The token,
        ``memory_budget`` and ``spill_manager`` (the last two already
        resolved by the run's :class:`_QueryRun`) land on the context's
        governance hooks; all ``None`` reproduces the pre-governance context
        exactly.
        """
        statistics = EvalStatistics()
        self.last_eval_statistics = statistics
        self._thread_statistics.value = statistics
        context = EvalContext(statistics=statistics)
        context.on_source_failure = options.on_source_failure
        if options.deadline is not None:
            context.deadline = self.resilience.clock() + options.deadline
        context.cancellation = options.cancellation
        context.memory_budget = memory_budget
        context.spill = spill_manager
        context.chunk_policy = options.chunk_policy
        context.engine = self
        return context

    # -- governance resolution ---------------------------------------------------

    def _resolve_budget(self, memory_budget) -> Optional[MemoryBudget]:
        """Normalise a caller's budget argument to the run's own budget.

        An ``int`` mints a per-query budget parented into the engine pool;
        a ready-made :class:`MemoryBudget` (e.g. a session-scoped quota)
        becomes the *parent* of a fresh per-run child, so concurrent runs
        share the quota and each run's usage flows back when its child
        closes.  Either way the result is the run's to close — never the
        caller's budget.
        ``None`` normally stays ``None`` (zero governance) — except on a
        pool-capped engine, where every run charges the pool through an
        unbounded owned budget, or one unbudgeted query could dodge the cap
        the operator configured.
        """
        pool = self.governor.pool
        if memory_budget is None:
            if pool is None:
                return None
            return MemoryBudget(None, label="query", parent=pool)
        if isinstance(memory_budget, MemoryBudget):
            return MemoryBudget(None, label="query", parent=memory_budget)
        return MemoryBudget(int(memory_budget), label="query", parent=pool)

    def _resolve_spill(self, spill: Optional[bool],
                       budget: Optional[MemoryBudget],
                       plan: Optional[PhysicalPlan]) -> Optional[SpillManager]:
        """The plan gate: pick in-memory vs. spill-to-disk *up front*.

        ``spill=True`` forces a spill manager, ``False`` forbids one, and
        ``None`` (auto) consults the cost model: when the planner's row
        estimate times the *sampled* row width (``self.row_width``, fed
        from spill bookkeeping; exactly
        :data:`~repro.kleisli.governance.NOMINAL_ROW_BYTES` until the first
        sample — the differential pin) exceeds the tightest cap in the
        budget chain, the materialization points are going to blow the
        budget anyway — so the run degrades to disk-backed
        (slower-but-correct) from the start instead of failing mid-flight.
        No estimate, or estimate under budget, means in-memory with the
        budget as a backstop.
        """
        if spill is None:
            cap: Optional[int] = None
            estimated = plan is not None and plan.estimated_rows is not None
            node = budget if estimated else None
            while node is not None:
                if node.limit is not None and (cap is None or node.limit < cap):
                    cap = node.limit
                node = node.parent
            spill = (cap is not None
                     and plan.estimated_rows * self.row_width.row_bytes() > cap)
        if not spill:
            return None
        from .spill import SpillManager

        return SpillManager()

    def thread_eval_statistics(self) -> Optional[EvalStatistics]:
        """The statistics of the last run *started on this thread*.

        Unlike ``last_eval_statistics`` this cannot be clobbered by another
        session's concurrent run; a streamed run's object keeps accumulating
        (warnings included) as the stream drains.
        """
        return getattr(self._thread_statistics, "value", None)

    def _lowered(self, target: str, expr: A.Expr, lower: Callable,
                 statistics: Optional[EvalStatistics]) -> object:
        """LRU lookup-or-compile for one lowering target; updates counters.

        A lowering is kept from the second time its key is lowered
        (:meth:`_CompileCache.admit`): a query sent once is not kept, one
        sent again hits from its third run.
        """
        cache = self._compiled_queries
        memo_key = (target, term_fingerprint(expr))
        query = cache.get(memo_key)
        if query is None:
            query = lower(expr)
            cache.admit(memo_key, query)
            if statistics is not None:
                statistics.compile_cache_misses += 1
        elif statistics is not None:
            statistics.compile_cache_hits += 1
        return query

    def compiled_query(self, expr: A.Expr,
                       statistics: Optional[EvalStatistics] = None) -> CompiledQuery:
        """Return (and LRU-cache) the eager closure-compiled form of ``expr``.

        The cache key is :func:`~repro.core.nrc.compile.term_fingerprint`
        (which says where it differs from structural equality, and why), so
        the same query sent again compiles twice at most, and is kept from
        its second lowering.  ``statistics`` (when given)
        receives the hit/miss accounting for this lookup.
        """
        return self._lowered("eager", expr, compile_term, statistics)

    def compiled_chunked(self, expr: A.Expr,
                         statistics: Optional[EvalStatistics] = None
                         ) -> CompiledChunkedStream:
        """Return (and LRU-cache) the chunked (morsel-at-a-time) lowering.

        Shares the LRU (and the fingerprint keying) with
        :meth:`compiled_query` under a distinct target tag, so the eager and
        streaming forms of one term coexist and age out independently.
        Chunk sizes are *not* baked in — they are read from
        ``EvalContext.chunk_policy`` at run time — so one cached pipeline
        serves every policy (and every plan).
        """
        return self._lowered("chunked", expr, compile_chunked, statistics)

    # benchmarks/e2e/tracing.py patches this name; ROADMAP direction 2(b) removes it.
    compiled_stream = compiled_chunked

    def execute(self, expr: A.Expr, bindings: Optional[Dict[str, object]] = None,
                optimize: bool = True, **options):
        """Optimize (optionally) and evaluate an NRC expression.

        ``options`` are the run options of :class:`QueryOptions`.

        **The lifecycle** (the same on :meth:`stream`): the arguments are
        checked and the term is optimized; on that term the run is *opened*
        (budget child, spill decision, trace, context); and whether the
        evaluation returns or raises it is *settled* by the run's one
        ``finish`` — profile, outcome count, spill settlement, budget, in
        that order (:class:`_QueryRun`).  With no token, no budget (and no
        engine pool), ``spill`` not ``True``, no hub and ``profile=False``
        there is nothing to open or settle: a bare context and the
        evaluation, with no planner call, no trace and no books — the
        zero-governance and zero-recorder contracts, bit-for-bit.
        """
        options = self._options(options)
        if optimize:
            expr = self.compile(expr)
        context = self._open_run(expr, None, options)
        finish = context.finish
        try:
            result = self._execute(expr, bindings, options.mode, context)
        except BaseException as error:
            if finish is not None:
                finish(error)
            raise
        if finish is not None:
            finish(None, float(len(result))
                   if isinstance(result, (CSet, CBag, CList)) else None)
        return result

    def _open_run(self, expr: A.Expr, plan: Optional[PhysicalPlan],
                  options: QueryOptions) -> EvalContext:
        """A run's context, whose ``finish`` is its :class:`_QueryRun`'s when
        it has anything to settle — ``None`` is the bare run of the zero
        contracts."""
        if (options.cancellation is None and options.memory_budget is None
                and self.governor.pool is None and options.spill is not True
                and self.observability is None and not options.profile):
            return self._make_context(options)
        return _QueryRun(self, expr, plan, options).context

    def _execute(self, expr: A.Expr, bindings: Optional[Dict[str, object]],
                 mode: ExecutionMode, context: EvalContext):
        """The mode dispatch ``execute`` has always performed, context in
        hand, on the term as given (closure-lowering runs strictly
        post-rewrite, through this engine's LRU)."""
        environment = Environment(dict(bindings or {}))
        if mode is ExecutionMode.COMPILED:
            query = self.compiled_query(expr, context.statistics)
            context.statistics.execution_mode = "compiled"
            return query(environment, context)
        context.statistics.execution_mode = "interpreted"
        return Evaluator(context).evaluate(expr, environment)

    def stream(self, expr: A.Expr, bindings: Optional[Dict[str, object]] = None,
               optimize: bool = True, **options) -> Iterator[object]:
        """Pipelined evaluation: yield elements as the pipeline produces them.

        In compiled mode the (optimized) term is lowered to a *chunked*
        pipeline (:meth:`compiled_chunked`): stages exchange ramping chunks
        — the first chunk is one element, so the first result arrives after
        O(1) source elements — and fused per-chunk loops run the hot path;
        the run's plan sizes the chunks unless the options' ``chunk_policy``
        does.  Sections
        with no chunk-wise lowering run eagerly inside the pipeline
        (``EvalStatistics.stream_fallbacks``).  This is the "laziness in
        strategic places" of Section 4, used to get initial output to the
        user quickly.

        The whole run happens inside a context-managed evaluation scope:
        closing the returned iterator early closes every cursor the pipeline
        opened — the source's *and* any body-level scans' — so an abandoned
        stream holds no driver resources, even behind buffered-but-
        unconsumed chunk elements.  Both execution modes stream.

        ``options`` are those of :meth:`execute`, and the lifecycle is the
        same one.  Checking, optimizing, planning, opening
        the run and lowering all happen here, at the call (a bad argument
        raises at the call site, and ``last_eval_statistics`` /
        ``last_plan`` refer to *this* run as soon as ``stream()`` returns);
        evaluation starts on the first ``next``.  What comes back is the
        run's one generator, the chunked pump or :meth:`_stream_interpreted`,
        whatever the run carries.  A lazily delivered answer has more
        endings than an eager one — drained, failed, closed after k
        elements, closed before the first ``next``, dropped and garbage
        collected — and the generator settles every one of them at its exit
        through the run's one ``finish`` (profile published, outcome
        counted, spill files deleted, budget returned).  A run with
        something to settle is handed out advanced to the generator's
        valueless first ``yield``, so even a ``close()`` before the first
        ``next`` settles it; the bare run (see :meth:`execute`) is not.
        """
        options = self._options(options)
        if optimize:
            expr = self.compile(expr)
        plan = None
        if options.mode is ExecutionMode.COMPILED:
            # The per-query physical plan.  An uninformed planner returns
            # the historical defaults, so this changes nothing until
            # statistics exist.
            plan = self.plan_for(expr)
        context = self._open_run(expr, plan, options)
        try:
            environment = Environment(dict(bindings or {}))
            if plan is None:
                context.statistics.execution_mode = "interpreted"
                stream = self._stream_interpreted(expr, environment, context)
            else:
                context.physical_plan = plan
                if context.chunk_policy is None:
                    context.chunk_policy = plan.chunk_policy(
                        is_remote=self.statistics_registry.is_remote)
                query = self.compiled_chunked(expr, context.statistics)
                context.statistics.execution_mode = "compiled"
                stream = query(environment, context)
        except BaseException as error:
            if context.finish is not None:
                context.finish(error)
            raise
        if context.finish is not None:
            next(stream)        # to the first, valueless ``yield``
        return stream

    def _stream_interpreted(self, expr: A.Expr, environment: Environment,
                            context: EvalContext) -> Iterator[object]:
        """The interpreter's pipelined path (top-level ``Ext`` only), and
        like the chunked pump the run's one generator (see :meth:`stream`).

        Kept for mode parity: the outer loop is pipelined, the body is
        evaluated eagerly per element.  The evaluation scope still releases
        any cursor the body opened if the consumer abandons the stream
        mid-element.
        """
        finish = context.finish
        rows = 0.0      # what the consumer received, for a profile
        try:
            if finish is not None:
                yield       # where stream() parks it; never seen by a consumer
            with context.evaluation_scope():
                evaluator = Evaluator(context)
                if type(expr) is not A.Ext:
                    # Evaluate on *this* context (not via execute(), which
                    # would rebind last_eval_statistics to a fresh object
                    # mid-stream and orphan the one stream() published).
                    result = evaluator.evaluate(expr, environment)
                    try:
                        elements = iter_collection(result)
                    except Exception:
                        elements = (result,)
                    for element in elements:
                        rows += 1
                        yield element
                else:
                    source = evaluator.evaluate(expr.source, environment)
                    iterator = iterate_source(source)
                    # Set semantics: suppress repeats incrementally (CSet
                    # order is first-occurrence order), so the stream matches
                    # the eagerly built value element-for-element — same
                    # policy as the compiled pipeline's set-kind stages.
                    seen = set() if expr.kind == "set" else None
                    token = context.cancellation
                    budget = context.memory_budget
                    try:
                        for item in iterator:
                            if token is not None:
                                token.raise_if_cancelled()
                            # Count the outer loop like the eager evaluator
                            # does, so a drained stream and execute() agree
                            # on elements_fetched.
                            context.statistics.ext_iterations += 1
                            body = evaluator.evaluate(
                                expr.body, environment.child(expr.var, item))
                            for element in iter_collection(materialise(body)):
                                if seen is not None:
                                    if element in seen:
                                        continue
                                    seen.add(element)
                                    if budget is not None:
                                        budget.charge_elements(1)
                                rows += 1
                                yield element
                    finally:
                        close_source(iterator, source)
        except BaseException as error:
            if finish is not None:
                finish(error, rows)
            raise
        if finish is not None:
            finish(None, rows)
