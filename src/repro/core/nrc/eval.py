"""The NRC evaluator.

The evaluation strategy follows the paper: the core is *eager*, with laziness
introduced only where it pays — when a generator draws from an external driver
the Kleisli engine hands the evaluator a lazy token stream (a Python iterator)
instead of a materialised collection, and the evaluator consumes it
incrementally (see :mod:`repro.kleisli.tokens`).

Evaluation needs three pieces of ambient context, bundled in
:class:`EvalContext`:

* ``driver_executor`` — how to satisfy a :class:`~repro.core.nrc.ast.Scan`
  (the Kleisli engine supplies this; stand-alone evaluation of driver-free
  terms needs none),
* ``cache`` — the run's own dict of :class:`~repro.core.nrc.ast.Cached`
  values (and of :class:`~repro.core.nrc.ast.Memo` values, one per key),
  filled on a key's first use and gone with the run,
* ``statistics`` — counters (elements fetched, loop iterations) that the
  benchmarks report.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional

from ..errors import EvaluationError, TermTooDeepError, UnboundVariableError
from ..records import Record, RecordDirectory
from ..values import (
    CBag,
    CList,
    CSet,
    Ref,
    UNIT_VALUE,
    Variant,
    empty_like,
    iter_collection,
    make_collection,
    singleton_like,
    union_like,
)
from . import ast as A
from .prims import lookup_primitive

__all__ = [
    "Environment", "Closure", "EvalContext", "EvalScope", "EvalStatistics",
    "Evaluator", "evaluate", "iterate_source", "materialise",
    "is_lazy_stream", "cache_payload", "close_source", "scan_stream",
]


#: Sentinel distinguishing "no binding" (or no cached value) from ``None``.
_MISSING = object()


class Environment:
    """A chained variable environment (lexical scoping)."""

    __slots__ = ("bindings", "parent")

    def __init__(self, bindings: Optional[Dict[str, object]] = None,
                 parent: Optional["Environment"] = None):
        self.bindings = bindings or {}
        self.parent = parent

    def _find(self, name: str) -> object:
        """Walk the chain once; return the bound value or ``_MISSING``."""
        env: Optional[Environment] = self
        while env is not None:
            value = env.bindings.get(name, _MISSING)
            if value is not _MISSING:
                return value
            env = env.parent
        return _MISSING

    def lookup(self, name: str) -> object:
        value = self._find(name)
        if value is _MISSING:
            raise UnboundVariableError(name)
        return value

    def contains(self, name: str) -> bool:
        return self._find(name) is not _MISSING

    def child(self, name: str, value: object) -> "Environment":
        """Return a new environment extending this one with a single binding."""
        return Environment({name: value}, parent=self)

    def extended(self, bindings: Dict[str, object]) -> "Environment":
        return Environment(dict(bindings), parent=self)


_compiled_closure_type: Optional[type] = None


def _is_compiled_closure(value: object) -> bool:
    """Exact-type check against compile.CompiledClosure, imported lazily.

    The lazy import breaks the module cycle (compile imports eval at load
    time); by the time a compiled closure can exist, the module is loaded.
    """
    global _compiled_closure_type
    if _compiled_closure_type is None:
        from .compile import CompiledClosure

        _compiled_closure_type = CompiledClosure
    return type(value) is _compiled_closure_type


class Closure:
    """The run-time value of a :class:`~repro.core.nrc.ast.Lam`."""

    __slots__ = ("param", "body", "env")

    def __init__(self, param: str, body: A.Expr, env: Environment):
        self.param = param
        self.body = body
        self.env = env

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<closure \\{self.param}>"


class EvalStatistics:
    """Counters reported by benchmarks and used in optimizer tests."""

    def __init__(self) -> None:
        self.scan_requests = 0
        self.scan_elements = 0
        self.ext_iterations = 0
        self.fold_iterations = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.peak_intermediate = 0
        #: How the query was executed: "interpreted" or "compiled".
        self.execution_mode = "interpreted"
        #: Always 0: benchmarks/e2e/tracing.py sums it (the Seam's name).
        self.compiled_fallbacks = 0
        #: Run-time count of pipeline sections that had no chunk lowering
        #: and were evaluated eagerly inside a streaming run (compile-time
        #: names in ``CompiledChunkedStream.eager_nodes``).
        self.stream_fallbacks = 0
        #: Always 0: benchmarks/e2e/tracing.py sums it; ROADMAP direction 2(b) removes it.
        self.scalar_stages = 0
        #: Engine compile-cache (LRU) accounting for this query's lowering.
        self.compile_cache_hits = 0
        self.compile_cache_misses = 0
        #: Resilience accounting: driver-request retries served for this run
        #: and mid-stream faults recovered to a resumed cursor.
        self.retries = 0
        self.recovered_faults = 0
        #: Typed :class:`~repro.core.errors.SourceDegradedWarning` records —
        #: one per source dropped from a degraded (``on_source_failure=
        #: "degrade"``) run.  Empty means the result is complete; non-empty
        #: means *announced* partial results, never silent truncation.
        self.warnings: List[object] = []

    @property
    def elements_fetched(self) -> int:
        """Total elements drawn from sources: scans, loop and fold iterations.

        The differential-testing harness asserts this number is identical
        under the interpreter and the closure compiler, which pins down all
        three underlying counters at once.
        """
        return self.scan_elements + self.ext_iterations + self.fold_iterations

    def note_intermediate(self, size: int) -> None:
        if size > self.peak_intermediate:
            self.peak_intermediate = size

    def as_dict(self) -> Dict[str, object]:
        result: Dict[str, object] = dict(self.__dict__)
        result["elements_fetched"] = self.elements_fetched
        # Warnings are typed records; the dict form is wire-encodable.
        result["warnings"] = [warning.as_dict() for warning in self.warnings]
        return result


class EvalScope:
    """A deterministic-release registry for cursors opened during evaluation.

    Every stream/cursor opened while a scope is active on the
    :class:`EvalContext` (driver token streams, ``_CountingStream`` wrappers)
    registers itself here; :meth:`close` releases them in
    LIFO order.  Closing a drained stream is a no-op by contract, so the
    scope can close everything unconditionally — only *abandoned* cursors
    are actually affected.

    Registration is thread-safe: ``ParallelExt`` bodies open cursors from
    scheduler worker threads while the consumer thread may be closing the
    scope.

    Scopes are *accounted*: :meth:`live_count` reports how many are open
    process-wide (created but not yet closed).  Because every pipelined run
    holds exactly one scope — and closing it releases every cursor the run
    opened — a multi-session workload (the :mod:`repro.server` soak tests)
    can assert cursor-leak-freedom by checking the count returns to its
    baseline once all sessions are done.
    """

    __slots__ = ("_resources", "_lock", "_closed")

    _accounting_lock = threading.Lock()
    _live = 0

    def __init__(self) -> None:
        self._resources: List[object] = []
        self._lock = threading.Lock()
        self._closed = False
        with EvalScope._accounting_lock:
            EvalScope._live += 1

    def register(self, resource: object) -> object:
        """Track ``resource`` (anything with a ``close()``); returns it.

        If the scope is already closed — a worker thread losing the race
        against an early ``close()`` — the resource is closed immediately
        instead of leaking.
        """
        with self._lock:
            if not self._closed:
                self._resources.append(resource)
                return resource
        close = getattr(resource, "close", None)
        if close is not None:
            close()
        return resource

    def unregister(self, resource: object) -> None:
        """Stop tracking a resource that released itself (e.g. a drained
        cursor).  Without this a long pipeline would pin every exhausted
        body-level cursor — and whatever it buffers — until the whole
        stream ends; with it the scope holds only *live* cursors.

        Resources drain roughly in registration order, so the linear scan
        almost always finds the entry at the front.
        """
        with self._lock:
            if not self._closed:
                try:
                    self._resources.remove(resource)
                except ValueError:
                    pass

    def close(self) -> None:
        """Release every registered resource, newest first."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            resources, self._resources = self._resources, []
        with EvalScope._accounting_lock:
            EvalScope._live -= 1
        for resource in reversed(resources):
            close = getattr(resource, "close", None)
            if close is not None:
                try:
                    close()
                except Exception:  # pragma: no cover - best-effort release
                    pass

    @property
    def closed(self) -> bool:
        return self._closed

    @classmethod
    def live_count(cls) -> int:
        """How many scopes are currently open, process-wide."""
        with cls._accounting_lock:
            return cls._live

    def __enter__(self) -> "EvalScope":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class EvalContext:
    """Ambient services the evaluator needs (drivers, cache, statistics)."""

    def __init__(self, driver_executor: Optional[Callable] = None,
                 statistics: Optional[EvalStatistics] = None,
                 driver_executor_batch: Optional[Callable] = None):
        self._driver_executor = driver_executor
        self._driver_executor_batch = driver_executor_batch
        #: The engine whose ``driver_executor(driver, request, context)`` (and
        #: batch twin) serves this run's scans, or ``None``: the two above do.
        self.engine = None
        self.statistics = statistics or EvalStatistics()
        #: The run's ``Cached`` values by key.  Worker tasks of the run store
        #: here too: a ``get`` and a store are each atomic.
        self.cache: Dict[str, object] = {}
        #: The :class:`~repro.core.nrc.compile.ChunkPolicy` governing chunk
        #: sizes for a chunked-pipeline run, or ``None`` for the default
        #: policy.  Set by ``KleisliEngine.stream`` (a run-time parameter, so
        #: compiled chunk pipelines stay cacheable by term fingerprint alone).
        self.chunk_policy = None
        #: The :class:`~repro.core.planner.plan.PhysicalPlan` the engine's
        #: planner chose for this run, or ``None`` (uninformed/defaults).
        #: Lowerings with scheduler knobs (ParallelExt prefetch) read their
        #: hints from it; like ``chunk_policy`` it is a run-time parameter.
        self.physical_plan = None
        #: The run's per-chunk timing sink (``note_chunk(stage, rows,
        #: seconds)``), or ``None``: on a profiled or hub-observed stream a
        #: :class:`~repro.obs.profile.ProbeTee`, set by
        #: ``KleisliEngine.stream``.  Only a sink makes the chunked pump read
        #: a clock per chunk.
        self.chunk_sink = None
        #: Absolute deadline for the whole run (on the resilience layer's
        #: clock), or ``None`` for no budget.  The resilience layer checks it
        #: before every driver attempt and before every backoff sleep; a
        #: spent deadline raises :class:`~repro.core.errors.DeadlineExceededError`
        #: (terminal — retrying a request cannot un-spend the query budget).
        self.deadline = None
        #: What a federated run does when one source stays down after
        #: retries (or its breaker is open): ``"fail"`` (default) propagates
        #: the error; ``"degrade"`` completes with partial results and a
        #: typed :class:`~repro.core.errors.SourceDegradedWarning` appended
        #: to ``statistics.warnings``.
        self.on_source_failure = "fail"
        #: The active :class:`EvalScope`, or ``None`` outside a scoped run.
        #: Eager ``execute`` leaves it ``None`` (returned lazy values stay
        #: usable); pipelined ``stream`` runs inside one so abandoning the
        #: pipeline releases every cursor it opened — including body-level
        #: scans — deterministically.
        self.scope: Optional[EvalScope] = None
        #: The run's :class:`~repro.kleisli.governance.CancellationToken`, or
        #: ``None``.  Lowerings check it at their natural scheduling points
        #: (chunk boundaries, eager loop heads) and the
        #: engine checks it pre-driver-dispatch; a cancelled token raises a
        #: typed :class:`~repro.core.errors.QueryCancelledError` from inside
        #: the active scope, so every cursor is released on the way out.
        self.cancellation = None
        #: The run's :class:`~repro.kleisli.governance.MemoryBudget`, or
        #: ``None``.  Charged (in nominal row units) by the unbounded
        #: materialization points: eager ext/fold sections, dedup seen-sets,
        #: blocked-join build sides, chunk buffers.
        self.memory_budget = None
        #: The run's :class:`~repro.kleisli.spill.SpillManager`, or ``None``.
        #: When set (plan-gated by the engine), the join-build and dedup
        #: materialization points use disk-backed structures instead of
        #: charging the budget for unbounded in-memory state.
        self.spill = None
        #: The run's :class:`~repro.obs.trace.QueryTrace`, or ``None`` (no
        #: recording — the zero-recorder contract).  Set by the engine when
        #: an observability hub is attached or the run asked for a profile;
        #: hook sites (driver dispatch, scope open/close, retries) open
        #: spans on it, all ``None``-guarded.
        self.trace = None
        #: The run's ``finish(error, rows)`` when it has something to settle
        #: (the engine's ``_QueryRun``), else ``None``.
        self.finish = None

    @property
    def driver_executor(self) -> Optional[Callable]:
        """``(driver, request) -> result``: how to satisfy a ``Scan``.  An
        engine's callback is bound at each read, never stored bound: a
        closure over the context, kept on it, would leave every run's context
        (and the cache view it owns) to a cyclic collection."""
        if self.engine is None:
            return self._driver_executor
        return partial(self.engine.driver_executor, context=self)

    @property
    def driver_executor_batch(self) -> Optional[Callable]:
        """Optional batched Scan callback: ``(driver, [request, ...]) ->
        [result, ...]`` (the engine routes it to ``Driver.execute_batch``).
        The chunked lowering uses it to satisfy a whole chunk's body scans
        in one driver call; absent, scans fall back to per-request calls."""
        if self.engine is None:
            return self._driver_executor_batch
        return partial(self.engine.driver_executor_batch, context=self)

    @contextmanager
    def evaluation_scope(self):
        """Activate a fresh :class:`EvalScope` for the duration of the block.

        Scopes nest LIFO: the previous scope (if any) is restored on exit,
        and only resources opened under the inner scope are released.

        Interleaving two *streamed* runs on one shared context is not
        supported: a pipeline's scope stays active while its generator is
        suspended (worker threads may still be opening cursors into it), so
        a second pipeline started on the same context would register its
        cursors into the first one's scope.  Give each streamed run its own
        ``EvalContext`` — ``KleisliEngine.stream`` does.  The conditional
        restore below at least keeps a non-LIFO exit from clobbering
        another run's active scope.
        """
        previous = self.scope
        scope = EvalScope()
        self.scope = scope
        trace = self.trace
        span = None if trace is None else trace.begin("scope", "scope")
        try:
            yield scope
        except BaseException:
            if span is not None:
                trace.end(span, status="error")
                span = None
            raise
        finally:
            if self.scope is scope:
                self.scope = previous
            scope.close()
            if span is not None:
                trace.end(span)


class Evaluator:
    """Evaluates NRC expressions to CPL values."""

    def __init__(self, context: Optional[EvalContext] = None):
        self.context = context or EvalContext()

    # -- entry point ---------------------------------------------------------

    def evaluate(self, expr: A.Expr, env: Optional[Environment] = None) -> object:
        env = env or Environment()
        try:
            return self._eval(expr, env)
        except RecursionError:
            raise TermTooDeepError(
                "term nests too deeply to interpret") from None

    # -- dispatch --------------------------------------------------------------

    def _eval(self, expr: A.Expr, env: Environment) -> object:
        method = self._DISPATCH.get(type(expr))
        if method is None:
            raise EvaluationError(f"cannot evaluate node of type {type(expr).__name__}")
        return method(self, expr, env)

    def _eval_const(self, expr: A.Const, env: Environment) -> object:
        value = expr.value
        if value is None:
            return UNIT_VALUE
        return value

    def _eval_var(self, expr: A.Var, env: Environment) -> object:
        return env.lookup(expr.name)

    def _eval_lam(self, expr: A.Lam, env: Environment) -> object:
        return Closure(expr.param, expr.body, env)

    def _eval_apply(self, expr: A.Apply, env: Environment) -> object:
        func = self._eval(expr.func, env)
        arg = self._eval(expr.arg, env)
        return self.apply_function(func, arg)

    def apply_function(self, func: object, arg: object) -> object:
        """Apply a closure or a native Python callable to an argument."""
        if isinstance(func, Closure):
            return self._eval(func.body, func.env.child(func.param, arg))
        # A compiled closure crossing the boundary: run it under *this*
        # context so statistics and driver routing follow the active
        # evaluation.
        if _is_compiled_closure(func):
            return func.apply_in(arg, self.context)
        if callable(func):
            return func(arg)
        raise EvaluationError(f"attempt to apply a non-function value {func!r}")

    def _eval_record(self, expr: A.RecordExpr, env: Environment) -> object:
        return Record({label: self._eval(value, env) for label, value in expr.fields.items()})

    def _eval_project(self, expr: A.Project, env: Environment) -> object:
        subject = self._eval(expr.expr, env)
        if isinstance(subject, Record):
            return subject.project(expr.label)
        if isinstance(subject, Ref):
            return self._project_ref(subject, expr.label)
        raise EvaluationError(
            f"cannot project field {expr.label!r} from {type(subject).__name__}"
        )

    def _project_ref(self, ref: Ref, label: str) -> object:
        target = ref.deref()
        if isinstance(target, Record):
            return target.project(label)
        raise EvaluationError(
            f"dereferenced value of {ref!r} is not a record; cannot project {label!r}"
        )

    def _eval_variant(self, expr: A.VariantExpr, env: Environment) -> object:
        return Variant(expr.tag, self._eval(expr.expr, env))

    def _eval_case(self, expr: A.Case, env: Environment) -> object:
        subject = self._eval(expr.subject, env)
        if not isinstance(subject, Variant):
            raise EvaluationError(
                f"case subject must be a variant, got {type(subject).__name__}"
            )
        for branch in expr.branches:
            if branch.tag == subject.tag:
                return self._eval(branch.body, env.child(branch.var, subject.value))
        if expr.default is not None:
            var, body = expr.default
            return self._eval(body, env.child(var, subject))
        raise EvaluationError(f"no case branch matches variant tag {subject.tag!r}")

    def _eval_empty(self, expr: A.Empty, env: Environment) -> object:
        return empty_like(expr.kind)

    def _eval_singleton(self, expr: A.Singleton, env: Environment) -> object:
        return singleton_like(expr.kind, self._eval(expr.expr, env))

    def _eval_union(self, expr: A.Union, env: Environment) -> object:
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        return union_like(expr.kind, left, right)

    def _eval_ext(self, expr: A.Ext, env: Environment) -> object:
        source = self._eval(expr.source, env)
        elements: List[object] = []
        stats = self.context.statistics
        token = self.context.cancellation
        budget = self.context.memory_budget
        charged = 0
        for item in self._iterate_source(source):
            if token is not None:
                token.raise_if_cancelled()
            stats.ext_iterations += 1
            body_value = self._eval(expr.body, env.child(expr.var, item))
            elements.extend(iter_collection(self._materialise(body_value)))
            stats.note_intermediate(len(elements))
            if budget is not None and len(elements) - charged >= 256:
                budget.charge_elements(len(elements) - charged)
                charged = len(elements)
        if budget is not None and len(elements) > charged:
            budget.charge_elements(len(elements) - charged)
        return make_collection(expr.kind, elements)

    def _eval_bind_scan(self, expr: A.BindScan, env: Environment) -> object:
        """The oracle of the batched lowerings: one request per source
        element, in order, each result a collection in its pair."""
        source = self._eval(expr.source, env)
        stats = self.context.statistics
        token = self.context.cancellation
        pairs: List[object] = []
        for item in self._iterate_source(source):
            if token is not None:
                token.raise_if_cancelled()
            stats.ext_iterations += 1
            result = self._eval(expr.body, env.child(expr.var, item))
            pairs.append(bind_pair(item, self._materialise(result)))
        if self.context.memory_budget is not None:
            self.context.memory_budget.charge_elements(len(pairs))
        stats.note_intermediate(len(pairs))
        return make_collection(expr.kind, pairs)

    def _iterate_source(self, source: object) -> Iterator[object]:
        """Iterate a collection or a lazy token stream."""
        return iterate_source(source)

    def _materialise(self, value: object) -> object:
        """Force a token stream into a collection (body values must be collections)."""
        return materialise(value)

    def _eval_fold(self, expr: A.Fold, env: Environment) -> object:
        """Structural recursion: thread an accumulator through the collection."""
        func = self._eval(expr.func, env)
        accumulator = self._eval(expr.init, env)
        stats = self.context.statistics
        token = self.context.cancellation
        source = self._eval(expr.source, env)
        for item in self._iterate_source(source):
            if token is not None:
                token.raise_if_cancelled()
            stats.fold_iterations += 1
            accumulator = self.apply_function(self.apply_function(func, accumulator), item)
        return accumulator

    def _eval_if(self, expr: A.IfThenElse, env: Environment) -> object:
        cond = self._eval(expr.cond, env)
        if not isinstance(cond, bool):
            raise EvaluationError(
                f"condition must be a boolean, got {type(cond).__name__}"
            )
        if cond:
            return self._eval(expr.then_branch, env)
        return self._eval(expr.else_branch, env)

    def _eval_prim(self, expr: A.PrimCall, env: Environment) -> object:
        function = lookup_primitive(expr.name)
        args = [self._eval(arg, env) for arg in expr.args]
        return function(*args)

    def _eval_let(self, expr: A.Let, env: Environment) -> object:
        value = self._eval(expr.value, env)
        return self._eval(expr.body, env.child(expr.var, value))

    def _eval_deref(self, expr: A.Deref, env: Environment) -> object:
        ref = self._eval(expr.expr, env)
        if not isinstance(ref, Ref):
            raise EvaluationError(f"cannot dereference {type(ref).__name__}")
        return ref.deref()

    def _eval_scan(self, expr: A.Scan, env: Environment) -> object:
        executor = self.context.driver_executor
        if executor is None:
            raise EvaluationError(
                f"no driver executor available to satisfy scan of driver {expr.driver!r}"
            )
        request = dict(expr.request)
        for key, arg_expr in expr.args.items():
            request[key] = self._eval(arg_expr, env)
        stats = self.context.statistics
        stats.scan_requests += 1
        result = executor(expr.driver, request)
        if isinstance(result, (CSet, CBag, CList)):
            stats.scan_elements += len(result)
            return result
        # Lazy token stream: count as it is consumed.
        return scan_stream(result, self.context)

    def _eval_memo(self, expr: A.Memo, env: Environment) -> object:
        try:
            entry = _memo_entry(expr.key, [self._eval(key, env) for key in expr.keys])
        except Exception:
            entry = None    # the aggregate raises it, if it reaches that key
        return _memoized(self.context, entry, self._eval, expr.expr, env)

    def _eval_cached(self, expr: A.Cached, env: Environment) -> object:
        cache = self.context.cache
        stats = self.context.statistics
        value = cache.get(expr.key, _MISSING)
        if value is not _MISSING:
            stats.cache_hits += 1
            return value
        stats.cache_misses += 1
        value = cache[expr.key] = cache_payload(self._eval(expr.expr, env))
        return value

    _DISPATCH = {}


Evaluator._DISPATCH = {
    A.Const: Evaluator._eval_const,
    A.Var: Evaluator._eval_var,
    A.Lam: Evaluator._eval_lam,
    A.Apply: Evaluator._eval_apply,
    A.RecordExpr: Evaluator._eval_record,
    A.Project: Evaluator._eval_project,
    A.VariantExpr: Evaluator._eval_variant,
    A.Case: Evaluator._eval_case,
    A.Empty: Evaluator._eval_empty,
    A.Singleton: Evaluator._eval_singleton,
    A.Union: Evaluator._eval_union,
    A.Ext: Evaluator._eval_ext,
    A.Fold: Evaluator._eval_fold,
    A.IfThenElse: Evaluator._eval_if,
    A.PrimCall: Evaluator._eval_prim,
    A.Let: Evaluator._eval_let,
    A.Deref: Evaluator._eval_deref,
    A.Scan: Evaluator._eval_scan,
    A.Cached: Evaluator._eval_cached,
    A.Memo: Evaluator._eval_memo,
    A.BindScan: Evaluator._eval_bind_scan,
}

#: The shape of a :class:`~repro.core.nrc.ast.BindScan` element.
_BIND_PAIR = RecordDirectory.for_labels(("item", "result"))


def bind_pair(item: object, result: object) -> Record:
    """``[item = item, result = result]``, on one shared directory."""
    return tuple.__new__(Record, (_BIND_PAIR, item, result))


def iterate_source(source: object) -> Iterator[object]:
    """Iterate a collection or a lazy token stream.

    Shared by the tree-walking :class:`Evaluator` and the closure compiler in
    :mod:`repro.core.nrc.compile`, so both execution modes accept exactly the
    same generator sources.
    """
    if isinstance(source, (CSet, CBag, CList)):
        return iter(source)
    if hasattr(source, "__iter__"):
        # A token stream (or any iterator) from a driver: consume lazily.
        return iter(source)
    raise EvaluationError(
        f"generator source must be a collection, got {type(source).__name__}"
    )


def materialise(value: object) -> object:
    """Force a token stream into a collection (body values must be collections)."""
    if isinstance(value, (CSet, CBag, CList)):
        return value
    if hasattr(value, "to_collection"):
        return value.to_collection()
    if hasattr(value, "__iter__") and not isinstance(value, (str, bytes, Record)):
        return CList(value)
    raise EvaluationError(
        f"body of a comprehension must produce a collection, got {type(value).__name__}"
    )


def is_lazy_stream(value: object) -> bool:
    """Whether ``value`` is a stream to drain (a driver cursor, a generator)
    and not a value in its own right: a collection, a record, a scalar."""
    return (not isinstance(value, (bool, int, float, str, Record, CSet, CBag, CList))
            and hasattr(value, "__iter__"))


def cache_payload(value: object) -> object:
    """What a ``Cached`` node stores in its run's dict: streams forced,
    everything else as-is.

    Shared by both execution modes, so a term stores the same value whichever
    mode runs it (the compiled ``Cached`` adds governance to the forcing and
    nothing else).
    """
    return materialise(value) if is_lazy_stream(value) else value


#: The classes of a value that a memo key or a stored memo value may hold:
#: two equal values of one of them cannot be told apart.  A float can (NaN
#: is not equal to itself, ``-0.0`` equals ``0.0``), and so can a structured
#: value, through the floats it holds or its identity.
_EXACT = frozenset((int, str, bool, bytes))


def _memo_entry(key: str, values: List[object]) -> Optional[tuple]:
    """The run-cache key of a :class:`~repro.core.nrc.ast.Memo` whose keys
    evaluated to ``values``: each value beside its exact class (so ``True``
    and ``1`` are two keys), or ``None`` when one is not of an
    :data:`_EXACT` class (``1.0`` is not) and the aggregate must run as
    written."""
    entry = [key]
    for value in values:
        kind = type(value)
        if kind not in _EXACT:
            return None
        entry += (kind, value)
    return tuple(entry)


def _memoized(context: "EvalContext", entry: Optional[tuple],
              compute: Callable, *args) -> object:
    """``compute(*args)``, looked up in and stored to the run's cache under
    ``entry`` (see :func:`_memo_entry`).  Shared by both execution modes.

    A value is stored only when it cannot be told apart from the one a
    second evaluation would build: an :data:`_EXACT` value or a float that
    is not NaN (a fresh NaN per row is a distinct set element).  An
    evaluation that raises stores nothing, so the next row with that key
    evaluates, and raises, again.
    """
    if entry is None:
        return compute(*args)
    cache = context.cache
    value = cache.get(entry, _MISSING)
    if value is not _MISSING:
        context.statistics.cache_hits += 1
        return value
    context.statistics.cache_misses += 1
    value = compute(*args)
    kind = type(value)
    if kind in _EXACT or (kind is float and value == value):
        cache[entry] = value
    return value


def close_source(iterator: object, source: object) -> None:
    """Release a (possibly layered) abandoned stream.

    Closes the iterator, then the source it was drawn from when that is a
    distinct object — an iterator wrapper's ``close`` (e.g. the generator
    from ``TokenStream.__iter__``) does not reach the source's own cursor.
    """
    close = getattr(iterator, "close", None)
    if close is not None:
        close()
    if source is not iterator:
        close = getattr(source, "close", None)
        if close is not None:
            close()


def scan_stream(result: object, context: "EvalContext") -> "_CountingStream":
    """Wrap a lazy driver result for scan accounting, scope-registered.

    Shared by the interpreter's ``Scan`` evaluation and both compiled
    lowerings: when an :class:`EvalScope` is active on the context, the
    cursor is registered so an abandoned pipeline releases it without
    waiting for GC — and unregisters itself once drained, so the scope
    does not pin exhausted cursors (or their buffers) for the life of a
    long stream.

    A result may supply its own counting wrapper via a
    ``make_counting_stream(statistics)`` hook (the resilience layer's
    recovering cursors do, merging recovery and accounting into one
    per-element frame); anything else gets the plain
    :class:`_CountingStream`.
    """
    make = getattr(result, "make_counting_stream", None)
    stream = _CountingStream(result, context.statistics) if make is None \
        else make(context.statistics)
    scope = context.scope
    if scope is not None:
        stream._scope = scope
        scope.register(stream)
    return stream


class _CountingStream:
    """Wraps a driver token stream, updating scan statistics as elements flow through."""

    def __init__(self, inner, statistics: EvalStatistics):
        self._source = inner
        self._inner = iter(inner)
        self._statistics = statistics
        #: The EvalScope tracking this cursor, if any (set by scan_stream).
        self._scope = None

    def __iter__(self):
        return self

    def __next__(self):
        try:
            value = next(self._inner)
        except StopIteration:
            scope = self._scope
            if scope is not None:
                self._scope = None
                scope.unregister(self)
            raise
        self._statistics.scan_elements += 1
        return value

    def close(self) -> None:
        """Release the underlying driver cursor (early stream termination)."""
        close_source(self._inner, self._source)


def evaluate(expr: A.Expr, bindings: Optional[Dict[str, object]] = None,
             context: Optional[EvalContext] = None) -> object:
    """Evaluate ``expr`` with the given variable ``bindings`` (a convenience wrapper)."""
    evaluator = Evaluator(context)
    return evaluator.evaluate(expr, Environment(dict(bindings or {})))
