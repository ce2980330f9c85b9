"""Compile-to-closures backend for NRC: the Kleisli execution engine's fast path.

The paper's Kleisli implementation gets its evaluation speed from *compiling*
CPL/NRC into an executable form rather than interpreting the tree.  This
module is that stage for the reproduction: a **staged compiler** that lowers
an (already optimized) NRC term into nested Python closures.

Staging strategy
----------------

Compilation is a single bottom-up pass, ``compile_term(term)``, producing one
Python callable per AST node with the uniform signature::

    fn(frame: list, context: EvalContext) -> value

Everything that the tree-walking :class:`~repro.core.nrc.eval.Evaluator` must
re-discover *per element of every collection* is decided **once, at compile
time**, and burned into the closure:

* **Dispatch** — the interpreter does a ``type(expr)`` dictionary lookup per
  node per element; here each node becomes a direct closure call, so the AST
  is never consulted again after compilation.
* **Variable lookup** — the interpreter allocates a chained ``Environment``
  dict per binding and walks the chain per lookup.  The compiler maintains a
  compile-time *scope* (a tuple of binder names, innermost last) and resolves
  every ``Var`` to a fixed integer slot; at run time the environment is a flat
  Python list (the *frame*) and a lookup is a single ``frame[i]`` index.
  Loop binders (``Ext``) reuse one frame slot across iterations, so the hot
  path allocates no environment at all.
* **Constant work** — primitive functions are looked up, collection
  constructors selected, record labels fixed, and scan request templates
  prepared at compile time.
* **Projection** — each compiled ``Project`` node carries an inline
  ``(directory, slot)`` cache, giving the Remy homogeneous-collection fast
  path (Section 4 of the paper) without a per-record directory lookup.

Closure values (``Lam``) snapshot the current frame when they are created, so
a function value escaping a loop observes the bindings that were live at its
creation, exactly like the interpreter's chained environments.

Fallback
--------

Node types without a registered compiler (see :func:`register_compiler`) are
not errors: the compiler emits a *fallback thunk* that reconstructs an
:class:`~repro.core.nrc.eval.Environment` from the frame and delegates the
subtree to the interpreter.  ``CompiledQuery.fallback_nodes`` reports which
node types fell back, and ``EvalStatistics.compiled_fallbacks`` counts how
often the handoff happened at run time.  Both execution modes share the same
:class:`~repro.core.nrc.eval.EvalContext` (driver executor, subquery cache,
statistics), so compiled and interpreted fragments interoperate freely —
including closures crossing the boundary in either direction.

Eager vs chunked lowering
-------------------------

The module offers **two lowering targets** over the same node registry
discipline:

* :func:`compile_term` — the eager backend: every closure returns a fully
  materialized collection.  This is what ``KleisliEngine.execute`` uses; it
  is the fastest way to produce a *whole* result, and the only correct way
  to produce a value that outlives the evaluation (results are plain
  collections, never half-consumed cursors).
* :func:`compile_chunked` — the pull-based, morsel-at-a-time backend: nodes
  with a registered chunk compiler (see :func:`register_chunk_compiler`)
  become generator pipeline stages that exchange *lists* of at most K
  elements, and adjacent map/filter stages fuse into tight per-chunk loops.
  This is what ``KleisliEngine.stream`` uses in compiled mode: it minimizes
  time-to-first-result and peak intermediate memory by overlapping remote
  I/O with downstream consumption (Section 4's "laziness in strategic
  places") — laziness, bounded buffering, scope-managed cursors — without
  a generator frame per element on local in-memory pipelines.

Selection is per *call site* (``execute`` vs ``stream``), then per *node*
within a streamed pipeline: ``Ext`` chains, filters, ``Let``/``IfThenElse``,
``Scan`` and the outer loop of a local join stream natively (set-kind stages
dedup as they go); everything whose semantics require the whole value —
``Fold``, the ``index`` a join probes, scalar operators — drops to the eager
closure for that subtree and the pipeline chunks its materialized result.
Those eager sections are reported in ``CompiledChunkedStream.eager_nodes``
and counted by ``EvalStatistics.stream_fallbacks`` (**the fallback
surface**: a node type without a chunk compiler is correct, just not
streamed).  ``Cached`` is a special case: it is a *deliberate*
materialization point (the subquery cache stores whole collections), so the
pipeline chunks the cached value without reporting a fallback.

Streaming semantics
-------------------

These rules keep a streamed run element-for-element identical to the eager
value, at O(1)-per-element cost:

* **Parity** — a drained run yields exactly the element sequence of
  ``execute``'s result and agrees on ``EvalStatistics.elements_fetched``.
  Chunk sizes are value-invisible: dedup-as-you-go carries its seen-set
  *across* chunk boundaries, and fused map/filter stages preserve per-stage
  ``ext_iterations`` accounting.  Partial-progress counters on a *failing*
  run may differ from the interpreter's (a chunk stage processes its chunk
  through one stage before the next), just as the eager backend's already
  do.
* **Set dedup-as-you-go** — ``CSet`` iterates in first-occurrence insertion
  order, so a set-kind stage that suppresses repeats incrementally
  (:func:`_dedup_set_chunks`) yields exactly the eager set's element
  sequence at O(distinct) memory.
* **The kind proof** — ``Union`` streams as a chained pipeline (left
  operand's elements, then the right's, under one shared set seen-filter)
  only when :func:`~repro.core.nrc.structural.proven_collection_kind` proves
  *statically* that both operands produce the union's collection class;
  that proof is what makes skipping ``union_like``'s run-time operand class
  check sound.  Terms whose operand kind cannot be proven (a bound ``Var``,
  a ``Scan`` whose driver controls the result class, a ``Cached`` value, a
  proven kind *mismatch*) fall back to the eager ``union_like`` section so
  they keep raising exactly where ``execute`` raises.
* **Join probing** — a local join is a loop (:mod:`repro.core.optimizer.caching`):
  the outer side streams and each element probes ``Cached(index(..))`` or scans
  a ``Cached`` inner subquery, computed on first need: never for an empty outer.
* **The ramp** — chunk sizes start at 1 and double per chunk up to the
  :class:`ChunkPolicy` maximum (read from ``EvalContext.chunk_policy`` at
  run time, so compiled pipelines stay cacheable by term fingerprint).
  The first chunk therefore costs one source element — the first result of
  a remote-scan comprehension arrives after O(1) source elements — while
  steady-state throughput gets full-size chunks; a maximum of 1 is the
  element-at-a-time stream.  Remote drivers (``ChunkPolicy.max_chunk_for``)
  keep a smaller maximum so a chunk never buffers more than a bounded slice
  of a slow cursor; abandoning a pipeline mid-chunk still releases every
  cursor — including those behind buffered-but-unconsumed chunk elements —
  through the run's :class:`~repro.core.nrc.eval.EvalScope`.
* **Record heads** — a fused stage whose body is a record constructor
  (``[acc = a.acc, len = a.len + 1]``) runs as the ``vrows`` op, Section 4's
  homogeneous projection (:func:`_record_plan`): per chunk, one C-level pass
  finds the rows' directory, whose projected slots are resolved once per
  activation, and the fields fill column-wise into value tuples on the
  head's static directory.  A set-kind stage or union chain whose operands
  all end in a head on one directory keys its seen-set on those tuples and
  builds a ``Record`` for first occurrences only (any other operand mix
  keeps the ``Record``-keyed set).  *Fallback*: a chunk that is not all
  records of one directory carrying every projected label takes the
  per-item form — values, typed errors and ``ext_iterations`` unchanged.

Eager sections remain exactly where the whole value is semantically
required: ``Fold`` (the accumulator consumes every element), the build side
of a local join (the ``index`` its loop probes), unproven ``Union`` operands
(the run-time class check needs the values), ``Cached`` (a deliberate
materialization point), and scalar operators reached through a collection
position.

An ``Ext`` whose body is a ``Scan`` depending on the loop variable
additionally batches its driver fetches: one
``EvalContext.driver_executor_batch`` call (``Driver.execute_batch``) per
batch — the source chunk, capped at the *scan* driver's policy maximum —
instead of one request per element.

Cost-based planning
-------------------

``KleisliEngine.stream`` asks its
:class:`~repro.core.planner.plan.QueryPlanner` for a per-query
:class:`~repro.core.planner.plan.PhysicalPlan`: the two ramp maxima,
``max_chunk`` and ``remote_max_chunk``, chosen from what the sources say —
registered or observed cardinalities and driver latencies in the
statistics registry, a driver's declared batch economics, and the
cardinality of earlier drained runs in the
:class:`~repro.core.planner.feedback.PlanFeedback` ledger.  The plan's
:meth:`~repro.core.planner.plan.PhysicalPlan.chunk_policy` becomes
``EvalContext.chunk_policy`` — a *run-time* parameter, so the compile-cache
key stays the bare term fingerprint and one cached pipeline serves every
plan.  The ramp itself is one geometric path (:class:`_ChunkRamp`): a chunk
is as big as its source declares or its rows say, and no clock sizes it.
A streamed ``ParallelExt`` submits one scheduler task per source element.

**Feedback**: when the engine attaches a
:class:`~repro.core.planner.feedback.PlanProbe` to the context
(``EvalContext.plan_probe``), a pipeline that drains normally commits its
true output cardinality.  The probe is keyed by the same
:func:`term_fingerprint` as the engine's compile cache, with a
constant-blind shape index for structurally-similar queries, and the next
``stream`` of the same (or similarly-shaped) term is planned from it
without recompiling.  Recording a cardinality reads no clock: per-chunk
timing exists only for a profile (see "Observability semantics").

Thread-safety
-------------

Compiled artifacts are **immutable once built** and safe to share across
threads: closures carry no mutable compile-time state (the one exception,
``Project``'s inline Remy cache, stores its ``(directory, slot)`` pair as a
single atomically-swapped tuple), while all *run-time* mutability lives in
the per-run frame and :class:`~repro.core.nrc.eval.EvalContext`.  This is
what lets one engine's compile-cache entry serve scheduler worker threads
and — since the query service (:mod:`repro.server`) multiplexes many
concurrent client sessions onto a single shared engine — every session of a
multi-user deployment at once.

Failure semantics
-----------------

Compiled code contains **no fault handling**: every scan site — the eager
closure, the chunked scan and the chunked batch fetch — routes
through ``EvalContext.driver_executor`` / ``driver_executor_batch``, and
the resilience layer (:mod:`repro.kleisli.resilience`) lives behind that
one choke point, so both lowerings inherit identical failure
behavior without any lowering-specific code:

* **Pre-open faults** (the request itself fails): retried per the
  driver's :class:`~repro.kleisli.resilience.RetryPolicy` with
  exponential backoff, classified by
  :func:`repro.core.errors.is_retryable_fault`; terminal faults (a
  malformed request, a missing driver, a spent deadline) propagate
  unretried.  A failed native ``execute_batch`` is decomposed and
  re-dispatched per request, so one poisoned request no longer fails its
  chunk siblings.
* **Mid-stream faults** (a lazy cursor dies after yielding elements): the
  scan is re-issued and resumed through a seen-prefix filter *below* the
  scan-accounting wrapper (``scan_stream`` asks the resilience layer's
  cursor for a merged wrapper), so a drained recovered run is
  bit-identical to a fault-free run in values AND ``elements_fetched`` —
  under every lowering.  A re-issue that ends inside the already-delivered
  prefix is a terminal error, never a silent short stream.
* **Deadlines** (``EvalContext.deadline``, set via
  ``engine.execute/stream(deadline=...)``): checked before every attempt
  and before every backoff sleep; always terminal.
* **Degradation** (``EvalContext.on_source_failure == "degrade"``): a
  source still down after retries — or behind an open circuit breaker —
  contributes an empty result (eager) or ends its stream at the delivered
  prefix (lazy), recorded as a typed
  :class:`~repro.core.errors.SourceDegradedWarning` in
  ``EvalStatistics.warnings``; partial results are always announced,
  never silent.  Under the default ``"fail"`` policy the classified fault
  propagates to the caller unchanged.

A driver with no configured policy bypasses all of the above: zero-fault
runs are bit-for-bit unchanged with the layer installed.

Cancellation & memory semantics
-------------------------------

Query-lifecycle governance (:mod:`repro.kleisli.governance`) threads through
the lowerings the same way resilience does — behind run-time ``EvalContext``
fields that default to ``None``, so the **zero-governance contract** holds: a
run with no cancellation token, no memory budget and no spill manager takes
exactly the pre-governance code paths (differential-pinned, like PR 5's
zero-statistics and PR 8's zero-knowledge contracts).

* **One lifecycle** (``KleisliEngine.execute`` / ``stream``, the engine's
  ``_QueryRun``): the hooks below are installed in one place and taken down
  in one place.  *Opening*, after the arguments are checked and on the term
  that is evaluated (the optimized one, on both entry points): the run's own
  budget child, the spill decision, the trace, the context.  *Settling*, one
  idempotent ``finish`` in a fixed order: the profile (it copies the spill
  books off the still-open manager, so it must precede the step that deletes
  them), the outcome count (budget rejection, or cancellation — the typed
  error, or any unfinished ending of a run whose token was cancelled), the
  spill settlement (row-width sample, hub metrics, engine ledger, files
  deleted), the budget child closed.  The endings that reach it: ``execute``
  returning or raising; a stream drained, failed, closed early, closed
  before its first ``next`` (the one wrapper is handed out already started,
  because a generator that never ran has no ``finally``), or dropped and
  collected.  A run with nothing to settle opens no run at all: ``stream``
  returns this module's ``_pump`` generator itself.
* **Checkpoint placement** (``EvalContext.cancellation``): cancellation is
  *cooperative* — the token is checked at every natural scheduling point and
  never interrupts mid-value.  The checkpoints are: the chunk boundaries
  of ``CompiledChunkedStream``'s pump (one check per chunk), the loop heads
  of the eager ``Ext``/``Fold`` closures (and their interpreter twins), and
  pre-driver-dispatch in ``KleisliEngine.driver_executor`` /
  ``driver_executor_batch``.  A tripped checkpoint raises the typed
  :class:`~repro.core.errors.QueryCancelledError` from *inside* the run's
  :class:`~repro.core.nrc.eval.EvalScope`, so every cursor the run opened is
  released on the way out — a cancelled query never leaks and never yields a
  partial value without the typed error.
* **Memory accounting** (``EvalContext.memory_budget``): the known unbounded
  materialization points charge the budget in nominal row units — the eager
  ``Ext`` element buffer, the build sides of local joins (the rows an
  ``index`` groups, the rows a ``Cached`` node drains from a lazy subquery),
  set-kind dedup seen-sets (via :func:`_make_seen_set`), and the chunked
  pump's transient chunk buffers (charged per chunk, released after).  An
  over-budget charge raises the typed
  :class:`~repro.core.errors.MemoryBudgetExceededError`.
* **Spill triggers** (``EvalContext.spill``): the engine attaches a
  :class:`~repro.kleisli.spill.SpillManager` *up front*, plan-gated by the
  PR 5 cost model (estimated rows of the optimized term × sampled row bytes
  vs. the budget; the estimate EXPLAIN ANALYZE prints is that same number)
  — not reactively mid-run — and the two biggest offenders degrade to
  disk-backed structures: the build sides become spill runs (a lazy
  subquery behind a generator-source ``Cached``: a
  :class:`~repro.kleisli.spill.SpilledList`; an ``index``: a
  hash-partitioned :class:`~repro.kleisli.spill.SpilledIndex`) and dedup
  seen-sets become :class:`~repro.kleisli.spill.GovernedSeenSet`.  Spilled
  structures are bounded-memory by construction, so they do not charge the budget.
* **Parity rules**: spilled execution is bit-for-bit the in-memory
  execution — same values, same order, same ``elements_fetched`` — across
  both lowerings (the spill backends preserve append order and exact
  dedup under hash collisions), and governance never changes *what* a
  query computes, only whether it is allowed to finish and where its
  intermediates live.

Observability semantics
-----------------------

Tracing, metrics, and EXPLAIN ANALYZE (:mod:`repro.obs`) observe the
lowerings without touching a single compiled artifact: every signal comes
from choke points that already exist on the run-time side of the
``EvalContext`` seam.  The **zero-recorder contract** is the governance
contract's twin — ``EvalContext.trace`` defaults to ``None``, every hook
site is ``None``-guarded, and a run with no recorder attached takes exactly
the pre-observability code paths (differential-pinned by the test suite).

* **Span sources** (``EvalContext.trace``): ``driver_executor`` opens one
  ``driver`` span per remote request and ``driver_executor_batch`` one
  ``driver-batch`` span per native batch — the spans both lowerings
  share, since every remote round trip funnels through those two methods.
  ``EvalContext.evaluation_scope`` brackets the run in a ``scope`` span
  (closed on success *and* on the fault path), and the resilience layer
  records each retry as a zero-duration ``retry`` event.  Spans per query
  are bounded: past the budget a shared dropped-span sentinel keeps
  begin/end pairing balanced without growing the tree.
* **Per-stage timings**: a profiled or hub-observed run's probe is a
  :class:`~repro.obs.profile.ProbeTee`, the one probe with a
  ``note_chunk``: the pump times each chunk's production under
  ``"pipeline"`` and a batched scan each batch under ``"scan:<driver>"``,
  for the profile's stage table and the hub's chunk-size histogram, while
  the feedback probe inside the tee still takes only the cardinality.  A
  run with neither reads no clock per chunk.  The eager lowering has no
  chunk boundaries; its per-stage story is the per-driver fold of its
  trace spans.
* **Cardinality**: EXPLAIN ANALYZE reports the physical plan's estimate
  next to the actual row count; on the eager path (which builds no
  physical plan) the estimate is recomputed observation-only from the
  planner's cardinality model, never written back into the context.
* **Parity rules**: profiling and metrics are *observation only* — a
  profiled run's values, order, and ``elements_fetched`` are bit-identical
  to the unprofiled run under every lowering, and an attached-hub engine's
  fault-free overhead is CI-gated by ``benchmarks/bench_observability.py``.
"""

from __future__ import annotations

import enum
import functools
import operator
import time
from typing import Callable, Dict, List, Optional, Tuple, Type, Union

from ..errors import EvaluationError, TermTooDeepError, UnboundVariableError
from ..records import Record, RecordDirectory, distinct_records
from ..values import (
    CBag,
    CList,
    CSet,
    Ref,
    UNIT_VALUE,
    Variant,
    _COLLECTION_CLASSES,
    empty_like,
    iter_collection,
    make_collection,
    union_like,
)
from . import ast as A
from .ast import free_variables
from .eval import (
    Closure,
    Environment,
    EvalContext,
    Evaluator,
    _CountingStream,
    is_lazy_stream,
    iterate_source,
    materialise,
    scan_stream,
)
from .prims import (
    build_index,
    fused_primitive_with_const,
    lookup_primitive,
    lookup_primitive_raw,
)
from .structural import proven_collection_kind

__all__ = [
    "ExecutionMode", "CompiledQuery", "CompiledClosure",
    "CompiledChunkedStream", "ChunkPolicy", "compile_term",
    "compile_chunked", "register_compiler", "register_chunk_compiler",
    "supported_node_types", "chunkable_node_types", "term_fingerprint",
]

_COLLECTIONS = (CSet, CBag, CList)


class ExecutionMode(enum.Enum):
    """How the Kleisli engine runs an optimized NRC term."""

    INTERPRET = "interpret"
    COMPILED = "compiled"

    @classmethod
    def coerce(cls, value: Union["ExecutionMode", str]) -> "ExecutionMode":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise EvaluationError(
                f"unknown execution mode {value!r}; "
                f"expected one of {[mode.value for mode in cls]}"
            ) from None


class _Unbound:
    """Marks a top-level frame slot whose name had no binding at call time.

    The interpreter raises :class:`UnboundVariableError` only if an unbound
    variable is actually *reached*; compiled queries preserve that by filling
    missing slots with a marker and checking it on access.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class CompiledClosure:
    """The run-time value of a compiled ``Lam``: a frame snapshot + body closure.

    Like an interpreter :class:`~repro.core.nrc.eval.Closure`, the *bindings*
    are fixed at creation but the ambient context (driver executor, cache,
    statistics) is the one of whoever applies it: :meth:`apply_in` takes the
    applying context, so a closure that outlives its run — stored in the
    subquery cache, returned to user code — charges statistics to, and
    resolves drivers through, the run that calls it.  ``__call__`` (the bare
    Python-callable protocol) falls back to the creation context.
    """

    __slots__ = ("body_fn", "frame", "context")

    def __init__(self, body_fn, frame, context):
        self.body_fn = body_fn
        self.frame = frame
        self.context = context

    def apply_in(self, arg: object, context: EvalContext) -> object:
        frame = list(self.frame)
        frame.append(arg)
        return self.body_fn(frame, context)

    def __call__(self, arg: object) -> object:
        return self.apply_in(arg, self.context)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "<compiled closure>"


def _apply_value(func: object, arg: object, context: EvalContext) -> object:
    """Apply a compiled closure, an interpreter closure, or a native callable."""
    if type(func) is CompiledClosure:
        return func.apply_in(arg, context)
    if isinstance(func, Closure):
        # An interpreter closure leaked across the boundary (e.g. out of a
        # fallback subtree or the subquery cache): evaluate it there.
        return Evaluator(context).apply_function(func, arg)
    if callable(func):
        return func(arg)
    raise EvaluationError(f"attempt to apply a non-function value {func!r}")


class _CompileState:
    """Per-``compile_term`` bookkeeping shared by the node compilers.

    ``fallbacks`` names subtrees delegated to the tree-walking interpreter
    (no eager compiler); ``eager`` names subtrees of a *streaming* lowering
    that had no chunk-wise form and were lowered eagerly instead.
    """

    __slots__ = ("n_free", "fallbacks", "eager")

    def __init__(self, n_free: int):
        self.n_free = n_free
        self.fallbacks: List[str] = []
        self.eager: List[str] = []


_Scope = Tuple[str, ...]
_CompiledFn = Callable[[list, EvalContext], object]
_COMPILERS: Dict[Type[A.Expr], Callable[[A.Expr, _Scope, _CompileState], _CompiledFn]] = {}


def register_compiler(node_type: Type[A.Expr]):
    """Register a closure compiler for an AST node type (extension hook).

    Dispatch is by *exact* type, so subclasses with different semantics (for
    example :class:`~repro.core.optimizer.parallel.ParallelExt`) are not
    silently compiled as their base class — they either register their own
    compiler with this decorator or fall back to the interpreter.

    A registered node type whose compiled form bakes in parameters beyond
    its structural children should also define ``fingerprint_extras()``
    returning those parameters, so :func:`term_fingerprint` (the engine's
    compile-cache key) can tell such terms apart; without it, terms
    containing the node are cached by identity only.
    """

    def decorator(function):
        _COMPILERS[node_type] = function
        return function

    return decorator


def supported_node_types() -> Tuple[str, ...]:
    """Names of node types with a native closure compiler (for docs and tests)."""
    return tuple(sorted(cls.__name__ for cls in _COMPILERS))


def _compile(expr: A.Expr, scope: _Scope, state: _CompileState) -> _CompiledFn:
    compiler = _COMPILERS.get(type(expr))
    if compiler is None:
        return _compile_fallback(expr, scope, state)
    return compiler(expr, scope, state)


def _compile_fallback(expr: A.Expr, scope: _Scope, state: _CompileState) -> _CompiledFn:
    """Delegate an unsupported subtree to the tree-walking interpreter."""
    state.fallbacks.append(type(expr).__name__)
    names = tuple(scope)

    def run(frame, context):
        context.statistics.compiled_fallbacks += 1
        bindings = {}
        for name, value in zip(names, frame):
            if type(value) is not _Unbound:
                bindings[name] = value
        return Evaluator(context)._eval(expr, Environment(bindings))

    return run


def _require_bool(cond: object) -> bool:
    """Reject non-boolean condition values (shared by both lowerings).

    The boolean-check policy must stay identical between the eager and
    streaming backends (and, eventually, the interpreter — see ROADMAP);
    keeping it in one place makes a coordinated change possible.
    """
    if cond is True or cond is False:
        return cond
    raise EvaluationError(
        f"condition must be a boolean, got {type(cond).__name__}"
    )


def _slot_of(scope: _Scope, name: str) -> Optional[int]:
    """Resolve ``name`` to its innermost slot (shadowing: scan from the end)."""
    for index in range(len(scope) - 1, -1, -1):
        if scope[index] == name:
            return index
    return None


def _extended(frame: list, value: object) -> list:
    new_frame = list(frame)
    new_frame.append(value)
    return new_frame


# ---------------------------------------------------------------------------
# Node compilers
# ---------------------------------------------------------------------------

@register_compiler(A.Const)
def _compile_const(expr: A.Const, scope, state):
    value = UNIT_VALUE if expr.value is None else expr.value
    return lambda frame, context: value


@register_compiler(A.Var)
def _compile_var(expr: A.Var, scope, state):
    slot = _slot_of(scope, expr.name)
    if slot is None:
        # Free variable outside even the top-level scope (cannot happen via
        # compile_term, which seeds the scope with all free names).
        name = expr.name

        def unbound(frame, context):
            raise UnboundVariableError(name)

        return unbound
    if slot < state.n_free:
        # A top-level free name: its slot may hold the "no binding" marker.
        name = expr.name

        def checked(frame, context, _slot=slot, _name=name):
            value = frame[_slot]
            if type(value) is _Unbound:
                raise UnboundVariableError(_name)
            return value

        return checked

    def run(frame, context, _slot=slot):
        return frame[_slot]

    return run


@register_compiler(A.Lam)
def _compile_lam(expr: A.Lam, scope, state):
    body_fn = _compile(expr.body, scope + (expr.param,), state)

    def run(frame, context):
        return CompiledClosure(body_fn, tuple(frame), context)

    return run


@register_compiler(A.Apply)
def _compile_apply(expr: A.Apply, scope, state):
    func_fn = _compile(expr.func, scope, state)
    arg_fn = _compile(expr.arg, scope, state)

    def run(frame, context):
        func = func_fn(frame, context)
        arg = arg_fn(frame, context)
        if type(func) is CompiledClosure:
            return func.apply_in(arg, context)
        return _apply_value(func, arg, context)

    return run


@register_compiler(A.RecordExpr)
def _compile_record(expr: A.RecordExpr, scope, state):
    labels = tuple(expr.fields.keys())
    # The label set is static, so the Remy directory is interned once at
    # compile time; each evaluation fills a value array directly instead of
    # building a dict and re-interning.  Fields still evaluate in source
    # order (side-effect order matches the interpreter).
    directory = RecordDirectory.for_labels(labels)
    slot_fns = tuple(
        (directory.slots[label], _compile(value, scope, state))
        for label, value in expr.fields.items()
    )
    width = len(directory)

    def run(frame, context):
        values = [None] * width
        for slot, fn in slot_fns:
            values[slot] = fn(frame, context)
        return Record(_directory=directory, _values=tuple(values))

    return run


@register_compiler(A.Project)
def _compile_project(expr: A.Project, scope, state):
    subject_fn = _compile(expr.expr, scope, state)
    label = expr.label
    # Inline Remy fast path: cache (directory, slot) as one tuple so the
    # closure stays safe when shared across scheduler threads.
    cache: List[Optional[tuple]] = [None]

    def run(frame, context):
        subject = subject_fn(frame, context)
        if isinstance(subject, Record):
            cached = cache[0]
            directory = subject.directory
            if cached is not None and cached[0] is directory:
                return subject.values[cached[1]]
            slot = directory.slot_of(label)
            cache[0] = (directory, slot)
            return subject.values[slot]
        if isinstance(subject, Ref):
            target = subject.deref()
            if isinstance(target, Record):
                return target.project(label)
            raise EvaluationError(
                f"dereferenced value of {subject!r} is not a record; "
                f"cannot project {label!r}"
            )
        raise EvaluationError(
            f"cannot project field {label!r} from {type(subject).__name__}"
        )

    return run


@register_compiler(A.VariantExpr)
def _compile_variant(expr: A.VariantExpr, scope, state):
    value_fn = _compile(expr.expr, scope, state)
    tag = expr.tag

    def run(frame, context):
        return Variant(tag, value_fn(frame, context))

    return run


@register_compiler(A.Case)
def _compile_case(expr: A.Case, scope, state):
    subject_fn = _compile(expr.subject, scope, state)
    branch_fns = tuple(
        (branch.tag, _compile(branch.body, scope + (branch.var,), state))
        for branch in expr.branches
    )
    default_fn = None
    if expr.default is not None:
        var, body = expr.default
        default_fn = _compile(body, scope + (var,), state)

    def run(frame, context):
        subject = subject_fn(frame, context)
        if not isinstance(subject, Variant):
            raise EvaluationError(
                f"case subject must be a variant, got {type(subject).__name__}"
            )
        for tag, body_fn in branch_fns:
            if tag == subject.tag:
                return body_fn(_extended(frame, subject.value), context)
        if default_fn is not None:
            return default_fn(_extended(frame, subject), context)
        raise EvaluationError(f"no case branch matches variant tag {subject.tag!r}")

    return run


@register_compiler(A.Empty)
def _compile_empty(expr: A.Empty, scope, state):
    value = empty_like(expr.kind)
    return lambda frame, context: value


@register_compiler(A.Singleton)
def _compile_singleton(expr: A.Singleton, scope, state):
    cls = _COLLECTION_CLASSES[expr.kind]
    value_fn = _compile(expr.expr, scope, state)

    def run(frame, context):
        return cls((value_fn(frame, context),))

    return run


@register_compiler(A.Union)
def _compile_union(expr: A.Union, scope, state):
    left_fn = _compile(expr.left, scope, state)
    right_fn = _compile(expr.right, scope, state)
    kind = expr.kind

    def run(frame, context):
        left = left_fn(frame, context)
        right = right_fn(frame, context)
        return union_like(kind, left, right)

    return run


def _filter_shape(body: A.Expr) -> Optional[Tuple[bool, A.Expr]]:
    """Detect the desugarer's filter shape in a loop body.

    Returns ``(emit_when, value_expr)`` for ``if c then Singleton(e) else
    Empty`` and its mirror, else ``None``.  Shared by the eager body emitter
    and the chunked ``Ext`` compiler so the two lowerings can never diverge.
    """
    if type(body) is not A.IfThenElse:
        return None
    then_branch, else_branch = body.then_branch, body.else_branch
    if type(then_branch) is A.Singleton and type(else_branch) is A.Empty:
        return (True, then_branch.expr)
    if type(then_branch) is A.Empty and type(else_branch) is A.Singleton:
        return (False, else_branch.expr)
    return None


def _compile_body_emitter(body: A.Expr, scope: _Scope, state: _CompileState):
    """Compile a loop body into ``emit(frame, context, elements)``.

    The generic form evaluates the body to a collection and splices its
    elements in.  Two shapes the desugarer and the rewrite rules produce for
    nearly every comprehension get specialized emitters that never build the
    intermediate one-element collection:

    * ``Singleton(e)`` — append ``e`` directly;
    * ``if c then Singleton(e) else Empty`` (a filter) and its mirror —
      test, then append directly.
    """
    if type(body) is A.Singleton:
        value_fn = _compile(body.expr, scope, state)

        def emit_singleton(frame, context, elements):
            elements.append(value_fn(frame, context))

        return emit_singleton

    if type(body) is A.IfThenElse:
        filter_shape = _filter_shape(body)
        if filter_shape is not None:
            emit_when, value_expr = filter_shape
            cond_fn = _compile(body.cond, scope, state)
            value_fn = _compile(value_expr, scope, state)

            def emit_filter(frame, context, elements):
                if _require_bool(cond_fn(frame, context)) is emit_when:
                    elements.append(value_fn(frame, context))

            return emit_filter

    body_fn = _compile(body, scope, state)

    def emit(frame, context, elements):
        value = body_fn(frame, context)
        if isinstance(value, _COLLECTIONS):
            elements.extend(value)
        else:
            elements.extend(iter_collection(materialise(value)))

    return emit


@register_compiler(A.Ext)
def _compile_ext(expr: A.Ext, scope, state):
    source_fn = _compile_source(expr.source, scope, state)
    emit = _compile_body_emitter(expr.body, scope + (expr.var,), state)
    kind = expr.kind
    slot = len(scope)

    def run(frame, context):
        source = source_fn(frame, context)
        stats = context.statistics
        token = context.cancellation
        budget = context.memory_budget
        elements: list = []
        # One loop frame, one slot, reused across iterations: the hot path
        # allocates no environment.  Escaping closures snapshot the frame.
        loop_frame = _extended(frame, None)
        iterations = 0
        charged = 0
        try:
            if token is None and budget is None:
                for item in iterate_source(source):
                    iterations += 1
                    loop_frame[slot] = item
                    emit(loop_frame, context, elements)
            else:
                # Governed loop: a cancellation checkpoint at the loop head
                # and quantum-batched budget charges for the element buffer.
                for item in iterate_source(source):
                    if token is not None:
                        token.raise_if_cancelled()
                    iterations += 1
                    loop_frame[slot] = item
                    emit(loop_frame, context, elements)
                    if budget is not None and len(elements) - charged >= 256:
                        budget.charge_elements(len(elements) - charged)
                        charged = len(elements)
        finally:
            # Batched counter update; the finally keeps partial counts on a
            # failing body identical to the interpreter's per-iteration ones.
            stats.ext_iterations += iterations
            stats.note_intermediate(len(elements))
        if budget is not None and len(elements) > charged:
            budget.charge_elements(len(elements) - charged)
        return make_collection(kind, elements)

    return run


@register_compiler(A.Fold)
def _compile_fold(expr: A.Fold, scope, state):
    func_fn = _compile(expr.func, scope, state)
    init_fn = _compile(expr.init, scope, state)
    source_fn = _compile(expr.source, scope, state)

    def run(frame, context):
        func = func_fn(frame, context)
        accumulator = init_fn(frame, context)
        stats = context.statistics
        token = context.cancellation
        source = source_fn(frame, context)
        iterations = 0
        try:
            if token is None:
                for item in iterate_source(source):
                    iterations += 1
                    accumulator = _apply_value(
                        _apply_value(func, accumulator, context), item, context)
            else:
                for item in iterate_source(source):
                    token.raise_if_cancelled()
                    iterations += 1
                    accumulator = _apply_value(
                        _apply_value(func, accumulator, context), item, context)
        finally:
            stats.fold_iterations += iterations
        return accumulator

    return run


@register_compiler(A.IfThenElse)
def _compile_if(expr: A.IfThenElse, scope, state):
    cond_fn = _compile(expr.cond, scope, state)
    then_fn = _compile(expr.then_branch, scope, state)
    else_fn = _compile(expr.else_branch, scope, state)

    def run(frame, context):
        if _require_bool(cond_fn(frame, context)):
            return then_fn(frame, context)
        return else_fn(frame, context)

    return run


@register_compiler(A.PrimCall)
def _compile_prim(expr: A.PrimCall, scope, state):
    try:
        function = lookup_primitive(expr.name)
    except EvaluationError:
        # Unknown primitive: the interpreter raises only when the node is
        # reached, so defer the lookup (and its error) to run time.
        function = None
    name = expr.name
    keyed = A.keyed_rows_parts(expr.args[0]) if name == "index" and len(expr.args) == 1 else None
    if keyed is not None:
        return _compile_index(*keyed, scope, state)
    arg_fns = tuple(_compile(arg, scope, state) for arg in expr.args)

    if function is not None and len(arg_fns) == 1:
        only_fn = arg_fns[0]

        def run1(frame, context):
            return function(only_fn(frame, context))

        return run1

    if function is not None and len(arg_fns) == 2:
        first_fn, second_fn = arg_fns

        def run2(frame, context):
            return function(first_fn(frame, context), second_fn(frame, context))

        return run2

    def run(frame, context):
        target = function if function is not None else lookup_primitive(name)
        return target(*[fn(frame, context) for fn in arg_fns])

    return run


@register_compiler(A.Let)
def _compile_let(expr: A.Let, scope, state):
    value_fn = _compile(expr.value, scope, state)
    body_fn = _compile(expr.body, scope + (expr.var,), state)

    def run(frame, context):
        return body_fn(_extended(frame, value_fn(frame, context)), context)

    return run


@register_compiler(A.Deref)
def _compile_deref(expr: A.Deref, scope, state):
    ref_fn = _compile(expr.expr, scope, state)

    def run(frame, context):
        ref = ref_fn(frame, context)
        if not isinstance(ref, Ref):
            raise EvaluationError(f"cannot dereference {type(ref).__name__}")
        return ref.deref()

    return run


@register_compiler(A.Scan)
def _compile_scan(expr: A.Scan, scope, state):
    driver = expr.driver
    base_request = dict(expr.request)
    arg_fns = tuple((key, _compile(arg, scope, state))
                    for key, arg in expr.args.items())

    def run(frame, context):
        executor = context.driver_executor
        if executor is None:
            raise EvaluationError(
                f"no driver executor available to satisfy scan of driver {driver!r}"
            )
        request = dict(base_request)
        for key, fn in arg_fns:
            request[key] = fn(frame, context)
        stats = context.statistics
        stats.scan_requests += 1
        result = executor(driver, request)
        if isinstance(result, _COLLECTIONS):
            stats.scan_elements += len(result)
            return result
        # Lazy cursor: counted as consumed, and registered with the active
        # evaluation scope (if any) so abandoning a pipeline closes it.
        return scan_stream(result, context)

    return run


def _compile_index(var: str, source: A.Expr, filters: List[A.Expr], key: A.Expr,
                   scope: _Scope, state: _CompileState) -> _CompiledFn:
    """``index(U[| if f.. then [|[key = k, row = y]|] | \\y <- S |])``, the
    indexed join's build side, without a ``[key, row]`` record per row.

    The one primitive that sees the :class:`EvalContext`: it runs the list
    ``Ext`` it stands for (``ext_iterations`` per source row, a cancellation
    checkpoint at the loop head, the budget charged for the rows kept)
    straight into :func:`~repro.core.nrc.prims.build_index`, its source as a
    stream; under a spill manager the groups are on disk and not charged.
    """
    source_fn = _compile_source(source, scope, state)
    body_scope = scope + (var,)
    filter_fns = tuple(_compile(condition, body_scope, state) for condition in filters)
    key_fn = _compile(key, body_scope, state)
    slot = len(scope)

    def run(frame, context):
        token = context.cancellation
        loop_frame = _extended(frame, None)
        iterations = 0

        def pairs():
            nonlocal iterations
            for item in iterate_source(source_fn(frame, context)):
                if token is not None:
                    token.raise_if_cancelled()
                iterations += 1
                loop_frame[slot] = item
                for filter_fn in filter_fns:
                    if not _require_bool(filter_fn(loop_frame, context)):
                        break
                else:
                    yield key_fn(loop_frame, context), item

        try:
            index = build_index(pairs(), context.memory_budget,
                                None if context.spill is None else context.spill.index())
        finally:
            context.statistics.ext_iterations += iterations
        context.statistics.note_intermediate(index.rows)
        return index

    return run


def _compile_source(expr: A.Expr, scope: _Scope, state: _CompileState) -> _CompiledFn:
    """Compile a generator source.  A ``Cached`` one is a join's build side; a
    guarded probe (:func:`~repro.core.nrc.ast.guarded_probe`), evaluated once
    per outer row of an indexed join, is one closure over the two primitives —
    no frame for the ``let``, same evaluation order."""
    if type(expr) is A.Cached:
        return _compile_cached(expr, scope, state, build_side=True)
    probed = A.guarded_probe_parts(expr)
    if probed is None:
        return _compile(expr, scope, state)
    index_fn, key_fn, empty_fn = (_compile(part, scope, state) for part in probed)
    is_empty = lookup_primitive_raw("isempty", 1)
    probe = lookup_primitive_raw("probe", 2)

    def run(frame, context):
        index = index_fn(frame, context)
        if is_empty(index):
            return empty_fn(frame, context)
        return probe(index, key_fn(frame, context))

    return run


@register_compiler(A.Cached)
def _compile_cached(expr: A.Cached, scope, state, build_side: bool = False):
    """``Cached``: computed on the first miss; a lazy stream is drained into a
    list charged to the budget (ungoverned, this is ``cache_payload``).

    A ``build_side`` node is a generator source (the blocked join's inner
    side): it is only iterated, so under a spill manager its rows go to a
    :class:`~repro.kleisli.spill.SpilledList` instead.  The spill files are
    the run's, so only an entry private to the run (a content-derived key) may
    hold them, and a reader of that entry that needs a collection (``count``,
    ``member``) turns them back into one.
    """
    inner_fn = _compile(expr.expr, scope, state)
    key = expr.key
    spillable = build_side and key.startswith(A.Cached.CONTENT_PREFIX)

    def run(frame, context):
        cache = context.cache
        stats = context.statistics
        if key in cache:
            stats.cache_hits += 1
            value = cache[key]
            if build_side or context.spill is None or not is_lazy_stream(value):
                return value    # (else: spilled rows, wanted as a collection)
        else:
            stats.cache_misses += 1
            value = inner_fn(frame, context)
        if is_lazy_stream(value):
            if spillable and context.spill is not None:
                rows = context.spill.spilled_list()
                rows.extend(iterate_source(value))
            else:
                rows = materialise(value)
                if context.memory_budget is not None:
                    context.memory_budget.charge_elements(len(rows))
            value = rows
        cache[key] = value
        return value

    return run


# ---------------------------------------------------------------------------
# The public entry point
# ---------------------------------------------------------------------------

def _build_frame(free_names: Tuple[str, ...], env: Optional[Environment]) -> list:
    """Read a query's free names out of ``env`` into the flat top-level frame.

    Shared by both lowering targets so unbound-name handling cannot diverge
    between ``execute`` and ``stream``: a missing binding becomes an
    :class:`_Unbound` marker, raising only if the variable is reached.
    """
    frame: list = []
    for name in free_names:
        try:
            frame.append(env.lookup(name) if env is not None
                         else _Unbound(name))
        except UnboundVariableError:
            frame.append(_Unbound(name))
    return frame


class CompiledQuery:
    """An NRC term lowered to nested closures, callable like the evaluator.

    ``free_names`` lists the term's free variables in slot order; calling the
    query reads them out of the supplied :class:`Environment` into the flat
    top-level frame.  ``fallback_nodes`` names the node types (if any) that
    had no native compiler and were delegated to the interpreter.
    """

    __slots__ = ("expr", "free_names", "fallback_nodes", "_fn")

    def __init__(self, expr: A.Expr):
        self.expr = expr
        self.free_names: Tuple[str, ...] = tuple(sorted(free_variables(expr)))
        state = _CompileState(n_free=len(self.free_names))
        self._fn = _compile(expr, self.free_names, state)
        self.fallback_nodes: Tuple[str, ...] = tuple(sorted(set(state.fallbacks)))

    @property
    def fully_compiled(self) -> bool:
        return not self.fallback_nodes

    def __call__(self, env: Optional[Environment] = None,
                 context: Optional[EvalContext] = None) -> object:
        context = context if context is not None else EvalContext()
        return self._fn(_build_frame(self.free_names, env), context)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        status = "full" if self.fully_compiled else \
            "fallback: " + ", ".join(self.fallback_nodes)
        return f"<CompiledQuery ({status})>"


def compile_term(term: A.Expr) -> CompiledQuery:
    """Lower an (optimized) NRC term into nested closures.

    Returns a :class:`CompiledQuery`; call it with an
    :class:`~repro.core.nrc.eval.Environment` and an
    :class:`~repro.core.nrc.eval.EvalContext` to evaluate.
    """
    try:
        return CompiledQuery(term)
    except RecursionError:
        raise TermTooDeepError("term nests too deeply to compile") from None


# ---------------------------------------------------------------------------
# Chunked (morsel-at-a-time) streaming lowering
# ---------------------------------------------------------------------------
#
# The second lowering target: instead of a closure returning a materialized
# collection, each node becomes a generator pipeline stage, and stages
# exchange *lists* of at most K elements, so the per-element cost of a stage
# is one tight-loop iteration rather than a generator-frame suspend/resume.
# Adjacent Ext stages with map/filter bodies fuse into ONE chunk stage that
# runs each stage as a tight loop over the chunk; set-kind dedup and the typed
# union's shared seen-filter have chunk-wise forms that preserve exact
# element-sequence parity with execute (see the module docstring's
# "Streaming semantics").  Chunk sizes ramp from 1 (the first
# chunk is the first element, so the first result of a remote-scan
# comprehension arrives after O(1) source elements) doubling up to the
# ChunkPolicy maximum, read from the EvalContext at run time; a policy whose
# maximum is 1 is the element-at-a-time stream.


def _iterate_streamed(value: object, context: EvalContext):
    """Iterate a collection or lazy stream produced by an eager section.

    Accepts exactly what :func:`~repro.core.nrc.eval.iterate_source` accepts
    (any iterable), so a term legal as a generator source under the eager
    backend is legal under the streaming one.  Lazy cursors that are not
    already scope-registered (``_CountingStream`` registers itself at
    creation) are registered with the active scope so an abandoned pipeline
    releases them deterministically.
    """
    if isinstance(value, _COLLECTIONS):
        return iter(value)
    if hasattr(value, "__iter__"):
        if not isinstance(value, _CountingStream):
            scope = context.scope
            if scope is not None and hasattr(value, "close"):
                scope.register(value)
                return _unregistering_iter(value, scope)
        return iter(value)
    raise EvaluationError(
        f"generator source must be a collection, got {type(value).__name__}"
    )


def _unregistering_iter(value: object, scope):
    """Iterate a scope-registered cursor, unregistering it when drained.

    Mirrors ``_CountingStream``'s self-unregistration: on natural
    exhaustion the scope stops tracking the dead cursor (so a long pipeline
    does not pin one per occurrence); on abandonment the ``yield from``
    never completes and the scope's close still reaches it.
    """
    yield from iter(value)
    scope.unregister(value)


class _BudgetedSeenSet:
    """A dedup seen-set that charges the run's memory budget as it grows.

    Charges are quantum-batched (one hierarchical budget walk per
    :data:`QUANTUM` distinct elements, not per element) so the dedup hot
    path pays one counter increment per element; the at-most-one-quantum
    under-charge at stream end is bounded and released with the budget.
    """

    QUANTUM = 256

    __slots__ = ("_set", "_budget", "_pending")

    def __init__(self, budget):
        self._set: set = set()
        self._budget = budget
        self._pending = 0

    def __contains__(self, value) -> bool:
        return value in self._set

    def add(self, value) -> None:
        before = len(self._set)
        self._set.add(value)
        if len(self._set) != before:
            self._pending += 1
            if self._pending >= self.QUANTUM:
                self._budget.charge_elements(self._pending)
                self._pending = 0

    def __len__(self) -> int:
        return len(self._set)


def _make_seen_set(context: EvalContext):
    """The seen-set for a set-kind dedup stage (governed materialization point).

    Plain ``set()`` ungoverned (the zero-governance path), a disk-backed
    :class:`~repro.kleisli.spill.GovernedSeenSet` under a spill manager
    (bounded memory, exact dedup), a budget-charging set under a budget
    alone.  All three satisfy the ``in``/``add`` protocol the dedup loops
    use, so chunk sizes and values stay identical across the backends.
    """
    spill = context.spill
    if spill is not None:
        return spill.seen_set()
    budget = context.memory_budget
    if budget is not None:
        return _BudgetedSeenSet(budget)
    return set()


class ChunkPolicy:
    """Chunk-size policy for the chunked lowering (a run-time parameter).

    Chunks start at one element (the first result of a pipeline costs one
    source element) and double per chunk up to ``max_chunk_for(driver)``.
    Remote drivers — decided by the ``is_remote`` callable, which
    ``KleisliEngine.stream`` wires to its
    :class:`~repro.kleisli.statistics.SourceStatisticsRegistry` — stop at
    the smaller ``remote_max_chunk`` so one chunk never buffers more than a
    bounded slice of a slow cursor; local sources ramp to ``max_chunk``.
    ``ChunkPolicy(max_chunk=1)`` is the element-at-a-time stream: one
    cancellation checkpoint and one transient budget unit per element.

    A chunk is as big as its source declares or its rows say; no clock
    sizes one.  A lazy cursor that is slow per element but declares no
    latency is a local source and ramps to ``max_chunk`` like any other;
    declaring its latency makes it remote, and that is how its buffering is
    bounded — just as only a declared cap pins a parallel loop's width.
    """

    DEFAULT_MAX_CHUNK = 1024
    REMOTE_MAX_CHUNK = 32

    __slots__ = ("max_chunk", "remote_max_chunk", "is_remote")

    def __init__(self, max_chunk: int = DEFAULT_MAX_CHUNK,
                 remote_max_chunk: int = REMOTE_MAX_CHUNK,
                 is_remote: Optional[Callable[[str], bool]] = None):
        for name, value in (("max_chunk", max_chunk),
                            ("remote_max_chunk", remote_max_chunk)):
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise ValueError(
                    f"{name} must be a positive integer, got {value!r}")
        self.max_chunk = max_chunk
        self.remote_max_chunk = remote_max_chunk
        self.is_remote = is_remote

    def max_chunk_for(self, driver: Optional[str] = None) -> int:
        """The size the chunk ramp over a source stops growing at."""
        if driver is not None and self.is_remote is not None \
                and self.is_remote(driver):
            return self.remote_max_chunk
        return self.max_chunk


#: The policy used when a context carries none (local ramp to 1024).
DEFAULT_CHUNK_POLICY = ChunkPolicy()


def _active_policy(context: EvalContext) -> ChunkPolicy:
    policy = getattr(context, "chunk_policy", None)
    return DEFAULT_CHUNK_POLICY if policy is None else policy


def _chunk_timer(context: EvalContext):
    """The run's per-chunk timing sink ``note_chunk(stage, rows, seconds)``,
    or ``None``.  Only a profile times chunks (the engine's
    :class:`~repro.obs.profile.ProbeTee`); the planner's feedback probe
    takes a drained run's cardinality and nothing per chunk."""
    return getattr(context.plan_probe, "note_chunk", None)


def _timed_chunks(chunks, note):
    """``chunks``, each one's *production* timed into ``note`` under the
    ``"pipeline"`` stage: the stretch from resuming the pipeline to the
    chunk being ready, so the consumer's time between pulls is excluded."""
    while True:
        began = time.perf_counter()
        try:
            chunk = next(chunks)
        except StopIteration:
            return
        note("pipeline", len(chunk), time.perf_counter() - began)
        yield chunk


class _ChunkRamp:
    """The one chunk-size path: 1, 2, 4, ... up to ``maximum``, then flat.

    One object can serve several emission sites: the batched-scan stage
    emits one result's elements after another, and a ramp that restarted
    at 1 for every result would re-pay tiny-chunk dispatch overhead per
    result.  The size carries across them: it starts at one element
    (protecting the pipeline's very first chunk — TTFR) and doubles per
    emitted chunk to ``maximum``, the source's :class:`ChunkPolicy` bound.
    """

    __slots__ = ("size", "maximum")

    def __init__(self, maximum: int):
        self.size = 1
        self.maximum = max(1, maximum)

    def emit_sliced(self, elements):
        """Ramped chunks of an indexable sequence, by C-level slicing."""
        start = 0
        total = len(elements)
        while start < total:
            yield list(elements[start:start + self.size])
            start += self.size
            self._grow()

    def emit_pulled(self, iterator):
        """Ramped chunks of a lazy cursor (no lookahead past the chunk)."""
        chunk: list = []
        append = chunk.append
        for item in iterator:
            append(item)
            if len(chunk) >= self.size:
                yield chunk
                chunk = []
                append = chunk.append
                self._grow()
        if chunk:
            yield chunk

    def _grow(self):
        if self.size < self.maximum:
            self.size = min(self.maximum, self.size * 2)


def _chunk_elements(value: object, context: EvalContext, maximum: int):
    """Ramped chunks of an evaluated value: sliced when materialized,
    pulled element-wise when lazy (cursors stay scope-registered)."""
    ramp = _ChunkRamp(maximum)
    if isinstance(value, _COLLECTIONS):
        return ramp.emit_sliced(value._elements)
    return ramp.emit_pulled(_iterate_streamed(value, context))


_ChunkFn = Callable[[list, EvalContext], object]
_CHUNK_COMPILERS: Dict[Type[A.Expr], Callable[[A.Expr, _Scope, _CompileState], _ChunkFn]] = {}


def register_chunk_compiler(node_type: Type[A.Expr]):
    """Register a chunk-wise lowering for an AST node type.

    Same exact-type dispatch contract as :func:`register_compiler`.  The
    registered function compiles ``expr`` to a generator function
    ``chunks(frame, context)`` whose iterator yields non-empty **lists** of
    elements; the concatenation of the lists must equal the node's element
    sequence, and no work (including driver requests) may happen before the
    first ``next()``.
    """

    def decorator(function):
        _CHUNK_COMPILERS[node_type] = function
        return function

    return decorator


def chunkable_node_types() -> Tuple[str, ...]:
    """Names of node types with a native chunk-wise lowering."""
    return tuple(sorted(cls.__name__ for cls in _CHUNK_COMPILERS))


def _compile_chunk(expr: A.Expr, scope: _Scope, state: _CompileState) -> _ChunkFn:
    compiler = _CHUNK_COMPILERS.get(type(expr))
    if compiler is None:
        if type(expr) is A.PrimCall and expr.name == "probe":
            # The group an index already holds: a leaf, nothing eager to it.
            return _chunk_leaf(expr, scope, state)
        return _chunk_via_eager(expr, scope, state)
    return compiler(expr, scope, state)


def _scan_drivers(expr: A.Expr) -> Tuple[str, ...]:
    """Every driver name scanned anywhere in ``expr`` (for chunk sizing)."""
    names = set()
    if type(expr) is A.Scan:
        names.add(expr.driver)
    for child in expr.children():
        names.update(_scan_drivers(child))
    return tuple(sorted(names))


def _subtree_max_chunk(policy: ChunkPolicy, drivers: Tuple[str, ...]) -> int:
    """The most conservative ramp bound over a subtree's scan drivers.

    A re-chunk point (an eager section, a parallel loop) sits downstream of
    whatever cursors its subtree opens; pulling a chunk pulls through them.
    Taking the minimum maximum over every driver the subtree can scan keeps
    the remote buffering bound ("one chunk never buffers more than a
    bounded slice of a slow cursor") intact across those points — a
    driver-free subtree gets the local bound.
    """
    return min([policy.max_chunk_for()]
               + [policy.max_chunk_for(driver) for driver in drivers])


def _chunk_via_eager(expr: A.Expr, scope: _Scope, state: _CompileState) -> _ChunkFn:
    """Evaluate a non-streamable subtree eagerly, then yield its chunks.

    Named in ``eager_nodes`` and counted by ``stream_fallbacks``.  The
    whole value is produced before the first chunk, so a term ``execute``
    rejects raises here exactly where it raises there.  The eager value can
    still be a lazy cursor (an eagerly compiled ``Scan``), so the ramp uses
    the subtree's conservative driver sizes like any re-chunk point.
    """
    state.eager.append(type(expr).__name__)
    fn = _compile(expr, scope, state)
    drivers = _scan_drivers(expr)

    def chunks(frame, context):
        context.statistics.stream_fallbacks += 1
        maximum = _subtree_max_chunk(_active_policy(context), drivers)
        yield from _chunk_elements(fn(frame, context), context, maximum)

    return chunks


def _chunk_leaf(expr: A.Expr, scope: _Scope, state: _CompileState) -> _ChunkFn:
    """A leaf in source position: evaluate (cheap), chunk lazily.

    Unlike :func:`_chunk_via_eager` this is not a fallback — a bound
    collection or constant has no cheaper pull-based form — so it is not
    counted in ``eager_nodes``/``stream_fallbacks``.
    """
    fn = _compile_source(expr, scope, state)

    def chunks(frame, context):
        yield from _chunk_elements(fn(frame, context), context,
                                   _active_policy(context).max_chunk_for())

    return chunks


register_chunk_compiler(A.Var)(_chunk_leaf)
register_chunk_compiler(A.Const)(_chunk_leaf)
# A Cached node is a deliberate materialization point: the subquery cache
# stores whole collections, so the pipeline evaluates it eagerly (hitting the
# cache) and chunks the cached value — exactly the leaf treatment, and
# likewise not counted as a fallback.  The pipeline only iterates it, so it
# is a build side (_compile_source).
register_chunk_compiler(A.Cached)(_chunk_leaf)


@register_chunk_compiler(A.Empty)
def _chunk_empty(expr: A.Empty, scope, state):
    def chunks(frame, context):
        return
        yield  # pragma: no cover - makes this a generator function

    return chunks


@register_chunk_compiler(A.Singleton)
def _chunk_singleton(expr: A.Singleton, scope, state):
    value_fn = _compile(expr.expr, scope, state)

    def chunks(frame, context):
        yield [value_fn(frame, context)]

    return chunks


def _dedup_set_chunks(chunk_fn: _ChunkFn) -> _ChunkFn:
    """Chunk-wise dedup-as-you-go for set-kind pipelines.

    ``CSet`` iterates in first-occurrence insertion order, so suppressing
    repeats incrementally yields *exactly* the element sequence of the
    eagerly built set — laziness preserved, at O(distinct elements) memory
    (no worse than the eager result itself).  The seen-set is carried
    *across* chunk boundaries, so chunk sizes stay value-invisible.

    The wrapper remembers the raw stage (``undeduped``) so an enclosing
    set-kind union can chain operand streams under ONE shared seen-filter:
    filtering the raw concatenation yields the same first-occurrence
    sequence as filtering pre-deduped operands, at one hash probe and one
    live seen-set per element instead of one per pipeline layer.
    """

    # A stage with a row form (value tuples of record heads on one static
    # directory) dedups before construct: only survivors become Records.
    directory, source_fn = getattr(chunk_fn, "rows", (None, chunk_fn))

    def chunks(frame, context):
        seen = _make_seen_set(context)
        add = seen.add
        for chunk in source_fn(frame, context):
            if directory is not None:
                out = distinct_records(directory, chunk, seen)
            else:
                out = []
                append = out.append
                for element in chunk:
                    if element not in seen:
                        add(element)
                        append(element)
            if out:
                yield out

    chunks.undeduped = chunk_fn
    return chunks


@register_chunk_compiler(A.Union)
def _chunk_union(expr: A.Union, scope, state):
    """The typed streaming union: chain the operand streams under a kind proof.

    ``union_like`` both deduplicates (sets) and type-checks the two
    operands' collection classes (all kinds).  When the static kind proof
    (:func:`~repro.core.nrc.structural.proven_collection_kind`) guarantees
    both operands produce this union's collection class, the run-time check
    is redundant and the union pipelines: the left operand's chunks, then
    the right's — for sets under one seen-filter carried across both
    operands, which matches ``left.union(right)``'s first-occurrence order
    exactly (bag/list union is concatenation, so chaining is the semantics).

    Without a proof for either operand (a bound ``Var``, a ``Scan``, a
    ``Cached`` value — or a *provable mismatch*), the union stays an eager
    ``union_like`` section: chaining would silently accept terms ``execute``
    rejects.
    """
    kind = expr.kind
    if (proven_collection_kind(expr.left) != kind
            or proven_collection_kind(expr.right) != kind):
        return _chunk_via_eager(expr, scope, state)
    left_fn = _compile_chunk(expr.left, scope, state)
    right_fn = _compile_chunk(expr.right, scope, state)
    if kind == "set":
        # The union's own seen-filter below provides all the dedup the
        # chain needs, so operands that dedup on their own (set-kind
        # Ext/ParallelExt, nested unions) are unwrapped to their raw
        # stages — an N-level union chain then carries exactly one seen-set
        # instead of N+1 (operands without the wrapper stream as-is).
        left_fn = getattr(left_fn, "undeduped", left_fn)
        right_fn = getattr(right_fn, "undeduped", right_fn)

    def chunks(frame, context, left_fn=left_fn, right_fn=right_fn):
        yield from left_fn(frame, context)
        yield from right_fn(frame, context)

    if kind == "set":
        left_rows = getattr(left_fn, "rows", None)
        right_rows = getattr(right_fn, "rows", None)
        if left_rows and right_rows and left_rows[0] is right_rows[0]:
            # Every operand ends in a record head on one directory: the
            # chain has a row form too, and the seen-set keys on its tuples.
            chunks.rows = (left_rows[0], functools.partial(
                chunks, left_fn=left_rows[1], right_fn=right_rows[1]))
        return _dedup_set_chunks(chunks)
    return chunks


@register_chunk_compiler(A.IfThenElse)
def _chunk_if(expr: A.IfThenElse, scope, state):
    cond_fn = _compile(expr.cond, scope, state)
    then_fn = _compile_chunk(expr.then_branch, scope, state)
    else_fn = _compile_chunk(expr.else_branch, scope, state)

    def chunks(frame, context):
        if _require_bool(cond_fn(frame, context)):
            yield from then_fn(frame, context)
        else:
            yield from else_fn(frame, context)

    return chunks


@register_chunk_compiler(A.Let)
def _chunk_let(expr: A.Let, scope, state):
    value_fn = _compile(expr.value, scope, state)
    body_fn = _compile_chunk(expr.body, scope + (expr.var,), state)

    def chunks(frame, context):
        yield from body_fn(_extended(frame, value_fn(frame, context)), context)

    return chunks


@register_chunk_compiler(A.Scan)
def _chunk_scan(expr: A.Scan, scope, state):
    run = _compile_scan(expr, scope, state)
    driver = expr.driver

    def chunks(frame, context):
        # The request fires on first next(); lazy cursors are registered
        # with the evaluation scope inside the eager scan closure.  Remote
        # drivers get the policy's smaller maximum chunk.
        maximum = _active_policy(context).max_chunk_for(driver)
        yield from _chunk_elements(run(frame, context), context, maximum)

    return chunks


def _execute_scan_batch(driver: str, requests: List[dict],
                        context: EvalContext) -> list:
    """Issue a chunk's worth of scan requests, batched where possible.

    Routes through ``EvalContext.driver_executor_batch`` (one
    ``Driver.execute_batch`` call for the whole chunk) when the engine
    provides it, else loops over the per-request executor.  Lazy results are
    scope-registered immediately — not on first consumption — so abandoning
    the pipeline mid-chunk releases cursors the batch opened but downstream
    never reached; eager collections are counted here like a single scan's.
    """
    executor = context.driver_executor
    batch_executor = context.driver_executor_batch
    if executor is None and batch_executor is None:
        raise EvaluationError(
            f"no driver executor available to satisfy scan of driver {driver!r}"
        )
    stats = context.statistics
    stats.scan_requests += len(requests)
    if batch_executor is not None:
        results = list(batch_executor(driver, requests))
    else:
        results = [executor(driver, request) for request in requests]
    prepared = []
    for result in results:
        if isinstance(result, _COLLECTIONS):
            stats.scan_elements += len(result)
            prepared.append(result)
        else:
            prepared.append(scan_stream(result, context))
    return prepared


def _chunk_ext_scan_batch(expr: A.Ext, scope: _Scope, state: _CompileState) -> _ChunkFn:
    """``Ext`` whose body is a ``Scan``: batch the chunk's driver fetches.

    Instead of one request per source element, a whole batch of requests
    is built first and dispatched in one ``execute_batch`` call, then each
    result's elements are yielded in request order — the same element
    sequence and the same drained-run statistics, at one driver round-trip
    per batch.

    The batch size is bounded by the *scan driver's* policy maximum (not
    just the source's chunk size): a remote scan driver keeps small batches,
    so one ``execute_batch`` call never blocks on — or buffers the results
    of — more than ``remote_max_chunk`` round-trips, however large the
    (possibly local, fully ramped) source's chunks grow.
    """
    source_fn = _compile_chunk(expr.source, scope, state)
    scan = expr.body
    body_scope = scope + (expr.var,)
    driver = scan.driver
    base_request = dict(scan.request)
    arg_fns = tuple((key, _compile(arg, body_scope, state))
                    for key, arg in scan.args.items())
    slot = len(scope)

    def chunks(frame, context):
        stats = context.statistics
        loop_frame = _extended(frame, None)
        maximum = _active_policy(context).max_chunk_for(driver)
        note = _chunk_timer(context)
        stage = "scan:" + driver
        # ONE ramp for the whole stage: it starts at 1 for the first chunk
        # (TTFR) and keeps its reached size across results, instead of
        # re-paying the tiny-chunk dispatch overhead per scan result.
        ramp = _ChunkRamp(maximum)
        for chunk in source_fn(frame, context):
            stats.ext_iterations += len(chunk)
            for start in range(0, len(chunk), maximum):
                requests = []
                for item in chunk[start:start + maximum]:
                    loop_frame[slot] = item
                    request = dict(base_request)
                    for key, fn in arg_fns:
                        request[key] = fn(loop_frame, context)
                    requests.append(request)
                if note is None:
                    results = _execute_scan_batch(driver, requests, context)
                else:
                    began = time.perf_counter()
                    results = _execute_scan_batch(driver, requests, context)
                    note(stage, len(requests), time.perf_counter() - began)
                for result in results:
                    if isinstance(result, _COLLECTIONS):
                        yield from ramp.emit_sliced(result._elements)
                    else:
                        yield from ramp.emit_pulled(iter(result))

    if expr.kind == "set":
        return _dedup_set_chunks(chunks)
    return chunks


def _ident(item):
    """The identity item-function (also a marker enabling specializations)."""
    return item


def _item_plan(expr: A.Expr, scope: _Scope, state: _CompileState,
               slot: int) -> Optional[tuple]:
    """Compile a fused-stage body into an *item-plan*, or ``None``.

    An item-plan realizes (per pipeline activation, via :func:`_realize`)
    into a single ``fn(item)`` callable, so a fused chunk stage can run as
    one ``list(map(fn, chunk))`` / one list comprehension — no loop-frame
    store and no nested argument-closure calls per element.  Covered: the
    loop variable, literals, bound/free variable reads (free top-level names
    keep raising per element when unbound, like the frame form), 1- and
    2-ary primitives known at compile time, and ``Project`` with the inline
    Remy directory cache.  Anything else returns ``None`` and the stage
    falls back to the general loop-frame form — same values either way.

    Enclosing-binder reads are realized once per activation: sound because
    a fused stage's enclosing frame slots cannot change while the stage's
    generator is live (a body pipeline is drained before the next outer
    element is bound).
    """
    node_type = type(expr)
    if node_type is A.Var:
        var_slot = _slot_of(scope, expr.name)
        if var_slot is None:
            return None
        if var_slot == slot:
            return ("item",)
        if var_slot < state.n_free:
            name = expr.name

            def build_checked(frame, context, _slot=var_slot, _name=name):
                value = frame[_slot]
                if type(value) is _Unbound:
                    def raising(item):
                        raise UnboundVariableError(_name)
                    return raising
                return lambda item, _value=value: _value

            return ("call", build_checked)

        def build_read(frame, context, _slot=var_slot):
            value = frame[_slot]
            return lambda item, _value=value: _value

        return ("call", build_read)
    if node_type is A.Const:
        return ("const", UNIT_VALUE if expr.value is None else expr.value)
    if node_type is A.PrimCall:
        try:
            # The call-site arity is static here, so the checked wrapper's
            # per-call arity test is elided (lookup_primitive_raw).
            function = lookup_primitive_raw(expr.name, len(expr.args))
        except EvaluationError:
            return None
        if len(expr.args) not in (1, 2):
            return None
        plans = [_item_plan(arg, scope, state, slot) for arg in expr.args]
        if any(plan is None for plan in plans):
            return None
        if len(plans) == 1:
            plan, = plans
            if plan == ("item",):
                # fn(item) == function(item): apply the primitive directly.
                return ("call", lambda frame, context, _f=function: _f)

            def build1(frame, context, _plan=plan, _f=function):
                arg_fn = _realize(_plan, frame, context)
                return lambda item: _f(arg_fn(item))

            return ("call", build1)
        first, second = plans
        if first == ("item",) and second[0] == "const":
            # Constant operand: its value checks run HERE, at compile time
            # (fused_primitive_with_const), leaving one call per element.
            fused = fused_primitive_with_const(expr.name, second[1],
                                               const_is_second=True)
            if fused is not None:
                return ("call", lambda frame, context, _fn=fused: _fn)
            value = second[1]
            return ("call", lambda frame, context, _f=function, _v=value:
                    (lambda item: _f(item, _v)))
        if first[0] == "const" and second == ("item",):
            fused = fused_primitive_with_const(expr.name, first[1],
                                               const_is_second=False)
            if fused is not None:
                return ("call", lambda frame, context, _fn=fused: _fn)
            value = first[1]
            return ("call", lambda frame, context, _f=function, _v=value:
                    (lambda item: _f(_v, item)))

        def build2(frame, context, _first=first, _second=second, _f=function):
            first_fn = _realize(_first, frame, context)
            second_fn = _realize(_second, frame, context)
            return lambda item: _f(first_fn(item), second_fn(item))

        return ("call", build2)
    if node_type is A.Project:
        subject_plan = _item_plan(expr.expr, scope, state, slot)
        if subject_plan is None:
            return None
        label = expr.label

        def build_project(frame, context, _plan=subject_plan, _label=label):
            subject_fn = _realize(_plan, frame, context)
            direct = subject_fn is _ident
            cache: List[Optional[tuple]] = [None]

            def project(item):
                subject = item if direct else subject_fn(item)
                if isinstance(subject, Record):
                    cached = cache[0]
                    directory = subject.directory
                    if cached is not None and cached[0] is directory:
                        return subject.values[cached[1]]
                    value_slot = directory.slot_of(_label)
                    cache[0] = (directory, value_slot)
                    return subject.values[value_slot]
                if isinstance(subject, Ref):
                    target = subject.deref()
                    if isinstance(target, Record):
                        return target.project(_label)
                    raise EvaluationError(
                        f"dereferenced value of {subject!r} is not a record; "
                        f"cannot project {_label!r}")
                raise EvaluationError(
                    f"cannot project field {_label!r} from {type(subject).__name__}")

            return project

        return ("call", build_project)
    if node_type is A.RecordExpr:
        return _record_plan(expr, scope, state, slot)
    return None


_ROW_DIRECTORY = operator.attrgetter("directory")
_ROW_VALUES = operator.attrgetter("values")


def _record_plan(expr: A.RecordExpr, scope: _Scope, state: _CompileState,
                 slot: int) -> Optional[tuple]:
    """The item-plan of a record head: ``("record", build, head_ops)``.

    ``build`` realizes the per-item form like any ``"call"`` plan.  A stage
    whose whole body is the head ends in ``head_ops`` instead (see "Record
    heads" in the module docstring): ``vrows`` realizes ``rows(chunk)``, the
    chunk's value tuples on the head's directory, and ``records`` builds on
    them.  Fields projecting the loop variable are gathered by one
    ``itemgetter`` per source slot; the others run their item-plan beside
    them; a chunk the gather cannot take — and the typed error at its
    offending row — goes to the per-item form.
    """
    directory = RecordDirectory.for_labels(expr.fields)
    fields: List[Tuple[int, tuple]] = []  # (output slot, item-plan), in source order
    gathered: Dict[int, str] = {}  # output slot -> label projected off the loop variable
    for label, value in expr.fields.items():
        plan = _item_plan(value, scope, state, slot)
        if plan is None:
            return None
        fields.append((directory.slots[label], plan))
        if type(value) is A.Project and _item_plan(value.expr, scope, state, slot) == ("item",):
            gathered[directory.slots[label]] = value.label
    width = len(directory)

    def build(frame, context):
        slot_fns = [(out, _realize(plan, frame, context)) for out, plan in fields]

        def record(item):
            values = [None] * width
            for out, fn in slot_fns:
                values[out] = fn(item)
            return Record(None, directory, tuple(values))

        return record

    computed = [(out, plan) for out, plan in fields if out not in gathered]
    if computed != sorted(computed, key=operator.itemgetter(0)):
        # Columns fill in slot order; computed fields in another source order
        # could report another of two errors than the per-item form does.
        return ("call", build)

    def slot_getters(source) -> Optional[dict]:
        if type(source) is not RecordDirectory or any(
                label not in source.slots for label in gathered.values()):
            return None
        return {out: operator.itemgetter(source.slots[label])
                for out, label in gathered.items()}

    def build_rows(frame, context):
        record = build(frame, context)
        columns = {out: _realize(plan, frame, context) for out, plan in computed}
        getters: Dict[object, Optional[dict]] = {}  # by source directory

        def rows(chunk):
            getter = values = None
            if gathered:
                try:
                    shapes = set(map(_ROW_DIRECTORY, chunk))
                except AttributeError:  # a row that is not a record
                    shapes = ()
                if len(shapes) == 1:
                    source, = shapes
                    if source not in getters:
                        getters[source] = slot_getters(source)
                    getter = getters[source]
                if getter is None:
                    return [record(item).values for item in chunk]
                values = list(map(_ROW_VALUES, chunk))
            if not width:
                return [()] * len(chunk)
            return list(zip(*[map(getter[out], values) if out in gathered
                              else map(columns[out], chunk)
                              for out in range(width)]))

        return rows

    return ("record", build, (("vrows", build_rows), (
        "records", directory, functools.partial(Record, None, directory))))


def _realize(plan: tuple, frame: list, context: EvalContext):
    """Turn an item-plan into its per-activation ``fn(item)`` callable."""
    tag = plan[0]
    if tag == "item":
        return _ident
    if tag == "const":
        value = plan[1]
        return lambda item: value
    return plan[1](frame, context)


@register_chunk_compiler(A.Ext)
def _chunk_ext(expr: A.Ext, scope, state):
    """Chunked ``Ext``: fuse adjacent map/filter stages into one chunk stage.

    Walking down through directly nested ``Ext`` nodes whose bodies are the
    desugarer's ``Singleton``/filter shapes collects an op list (innermost
    first); every stage binds its loop variable at the *same* frame slot
    (each source is compiled in the enclosing scope), so one reused loop
    frame serves the whole fused segment.  At run time each chunk flows
    through the ops as tight loops — no generator frame per stage — with
    per-stage ``ext_iterations`` batched per chunk and set-kind stages
    deduping through a seen-set that persists across chunks.
    """
    slot = len(scope)
    stages = []  # outermost-first: each stage's ops, in order
    node = expr
    top = True
    while type(node) is A.Ext:  # exact type: ParallelExt has its own lowering
        body = node.body
        body_scope = scope + (node.var,)
        if type(body) is A.Singleton:
            plan = _item_plan(body.expr, body_scope, state, slot)
            if plan == ("item",):
                # Identity map: no transformation, only loop accounting.
                stage = [("count",)]
            elif plan is None:
                stage = [("map", _compile(body.expr, body_scope, state))]
            elif plan[0] == "record":
                stage = [("count",), *plan[2]]
            else:
                stage = [("vmap", plan)]
        else:
            filter_shape = _filter_shape(body)
            if filter_shape is None:
                break
            emit_when, value_expr = filter_shape
            cond_plan = _item_plan(body.cond, body_scope, state, slot)
            value_plan = _item_plan(value_expr, body_scope, state, slot)
            if cond_plan is None or value_plan is None:
                stage = [("filter", _compile(body.cond, body_scope, state),
                          _compile(value_expr, body_scope, state), emit_when)]
            elif value_plan[0] == "record":
                stage = [("vfilter", cond_plan, ("item",), emit_when), *value_plan[2]]
            else:
                stage = [("vfilter", cond_plan, value_plan, emit_when)]
        # The top stage's set dedup is the wrapper below; an absorbed inner
        # stage's dedup becomes an op between it and the enclosing stage.
        if node.kind == "set" and not top:
            stage.append(("dedup",))
        stages.append(stage)
        top = False
        node = node.source

    if not stages:
        if type(expr.body) is A.Scan:
            return _chunk_ext_scan_batch(expr, scope, state)
        return _chunk_ext_generic(expr, scope, state)

    source_fn = _compile_chunk(node, scope, state)
    ops = tuple(op for stage in reversed(stages) for op in stage)  # innermost first

    def chunks(frame, context, ops=ops):
        stats = context.statistics
        loop_frame = _extended(frame, None)
        require_bool = _require_bool  # closure-local for the hot comprehensions
        # Realize the vectorized ops' item-functions once per activation
        # (enclosing-binder reads bind here; see _item_plan), so each hot
        # pass below is one list comprehension / one C-level map per chunk.
        realized = []
        for op in ops:
            tag = op[0]
            if tag == "vmap":
                realized.append((tag, _realize(op[1], frame, context)))
            elif tag == "vrows":
                realized.append((tag, op[1](frame, context)))
            elif tag == "vfilter":
                realized.append((tag, _realize(op[1], frame, context),
                                 _realize(op[2], frame, context), op[3]))
            elif tag == "dedup":
                realized.append((tag, _make_seen_set(context)))
            else:
                realized.append(op)
        for out in source_fn(frame, context):
            for op in realized:
                tag = op[0]
                if tag == "vmap":
                    stats.ext_iterations += len(out)
                    out = list(map(op[1], out))
                elif tag == "vfilter":
                    _, cond_fn, value_fn, emit_when = op
                    stats.ext_iterations += len(out)
                    if value_fn is _ident:
                        out = [item for item in out
                               if require_bool(cond_fn(item)) is emit_when]
                    else:
                        out = [value_fn(item) for item in out
                               if require_bool(cond_fn(item)) is emit_when]
                elif tag == "count":
                    stats.ext_iterations += len(out)
                elif tag == "vrows":  # a head's value tuples, chunk-wise
                    out = op[1](out)
                elif tag == "records":
                    out = list(map(op[2], out))
                elif tag == "map":
                    value_fn = op[1]
                    stats.ext_iterations += len(out)
                    nxt = []
                    append = nxt.append
                    for item in out:
                        loop_frame[slot] = item
                        append(value_fn(loop_frame, context))
                    out = nxt
                elif tag == "filter":
                    _, cond_fn, value_fn, emit_when = op
                    stats.ext_iterations += len(out)
                    nxt = []
                    append = nxt.append
                    for item in out:
                        loop_frame[slot] = item
                        if _require_bool(cond_fn(loop_frame, context)) is emit_when:
                            append(value_fn(loop_frame, context))
                    out = nxt
                else:  # dedup (an absorbed set-kind stage)
                    seen = op[1]
                    add = seen.add
                    nxt = []
                    append = nxt.append
                    for element in out:
                        if element not in seen:
                            add(element)
                            append(element)
                    out = nxt
                if not out:
                    break
            if out:
                yield out

    if expr.kind == "set":
        if ops[-1][0] == "records":
            # The row form stops short of building records: the dedup does it.
            chunks.rows = (ops[-1][1], functools.partial(chunks, ops=ops[:-1]))
        return _dedup_set_chunks(chunks)
    return chunks


def _chunk_ext_generic(expr: A.Ext, scope: _Scope, state: _CompileState) -> _ChunkFn:
    """Chunked ``Ext`` with an arbitrary (collection-producing) body.

    The body's own chunk stream passes through: its chunks become output
    chunks.  The loop frame is safely reused across iterations: the body's
    chunk stream for item N is exhausted before item N+1 is bound, and
    escaping closures snapshot the frame at creation.
    """
    source_fn = _compile_chunk(expr.source, scope, state)
    body_fn = _compile_chunk(expr.body, scope + (expr.var,), state)
    slot = len(scope)

    def chunks(frame, context):
        stats = context.statistics
        loop_frame = _extended(frame, None)
        for chunk in source_fn(frame, context):
            stats.ext_iterations += len(chunk)
            for item in chunk:
                loop_frame[slot] = item
                yield from body_fn(loop_frame, context)

    if expr.kind == "set":
        return _dedup_set_chunks(chunks)
    return chunks


class CompiledChunkedStream:
    """An NRC term lowered to a chunk-at-a-time generator pipeline.

    Calling it returns an *iterator over elements* (chunks are an internal
    exchange format; the engine's ``stream`` contract is element-wise; a
    non-collection value is yielded as a single element) — use
    :meth:`chunks` to observe the chunk boundaries.  The whole run happens
    inside a fresh :class:`~repro.core.nrc.eval.EvalScope` on the supplied
    context: every cursor the pipeline opens — source scans *and*
    body-level scans — is released when the iterator is exhausted, closed
    early or fails, including those behind buffered-but-unconsumed chunk
    elements.

    ``eager_nodes`` names node types that had no chunk-wise lowering and ran
    eagerly inside the pipeline; ``fallback_nodes`` names node types (inside
    those eager sections) delegated all the way back to the interpreter.
    """

    __slots__ = ("expr", "free_names", "fallback_nodes", "eager_nodes", "_fn")

    def __init__(self, expr: A.Expr):
        self.expr = expr
        self.free_names: Tuple[str, ...] = tuple(sorted(free_variables(expr)))
        state = _CompileState(n_free=len(self.free_names))
        self._fn = self._lower_toplevel(expr, self.free_names, state)
        self.fallback_nodes: Tuple[str, ...] = tuple(sorted(set(state.fallbacks)))
        self.eager_nodes: Tuple[str, ...] = tuple(sorted(set(state.eager)))

    @classmethod
    def _lower_toplevel(cls, expr: A.Expr, scope: _Scope,
                        state: _CompileState) -> _ChunkFn:
        """Top-level lowering: tolerates a non-collection result.

        A scalar query streams as a single element (matching the engine's
        historical ``stream`` contract), unlike source/body positions where
        a scalar is an error.  The tolerance follows the *transparent spine*
        — ``Let`` bodies, ``IfThenElse`` branches, and value leaves — so
        ``Let(x, Ext(...))`` still streams its comprehension while
        ``Let(x, x + 2)`` yields one element instead of raising.
        """
        node_type = type(expr)
        if node_type is A.Let:
            value_fn = _compile(expr.value, scope, state)
            body_fn = cls._lower_toplevel(expr.body, scope + (expr.var,), state)

            def chunk_let(frame, context):
                yield from body_fn(_extended(frame, value_fn(frame, context)),
                                   context)

            return chunk_let
        if node_type is A.IfThenElse:
            cond_fn = _compile(expr.cond, scope, state)
            then_fn = cls._lower_toplevel(expr.then_branch, scope, state)
            else_fn = cls._lower_toplevel(expr.else_branch, scope, state)

            def chunk_if(frame, context):
                if _require_bool(cond_fn(frame, context)):
                    yield from then_fn(frame, context)
                else:
                    yield from else_fn(frame, context)

            return chunk_if
        if node_type in (A.Var, A.Const, A.Cached):
            # Value leaves (and Cached, a materialization point): evaluate,
            # then chunk elements — or the value itself when it is scalar.
            return cls._tolerant_chunks(_compile(expr, scope, state),
                                        count_fallback=False)
        if node_type in _CHUNK_COMPILERS:
            # Collection-producing nodes (Ext, Scan, Union, ...): a
            # scalar cannot legally appear here, so chunk directly.
            return _compile_chunk(expr, scope, state)
        state.eager.append(node_type.__name__)
        return cls._tolerant_chunks(_compile(expr, scope, state),
                                    count_fallback=True)

    @staticmethod
    def _tolerant_chunks(fn: _CompiledFn, count_fallback: bool) -> _ChunkFn:
        """Chunk a value's elements if it is a CPL collection, else yield the
        value as a one-element chunk.

        Deliberately as strict as ``iter_collection``: a plain Python
        iterable (tuple, dict, generator) bound to a variable is *one*
        value, exactly as ``execute`` and the interpreted stream treat it —
        not an element sequence to explode.
        """

        def chunks(frame, context):
            if count_fallback:
                context.statistics.stream_fallbacks += 1
            value = fn(frame, context)
            if isinstance(value, _COLLECTIONS):
                yield from _chunk_elements(
                    value, context, _active_policy(context).max_chunk_for())
            else:
                yield [value]

        return chunks

    @property
    def fully_compiled(self) -> bool:
        """No interpreter fallback anywhere in the pipeline."""
        return not self.fallback_nodes

    @property
    def fully_chunked(self) -> bool:
        """Every node lowered chunk-wise (no eager sections)."""
        return not self.eager_nodes

    def __call__(self, env: Optional[Environment] = None,
                 context: Optional[EvalContext] = None):
        context = context if context is not None else EvalContext()
        return self._pump(_build_frame(self.free_names, env), context)

    def chunks(self, env: Optional[Environment] = None,
               context: Optional[EvalContext] = None):
        """Iterate the pipeline's chunks (lists) instead of its elements."""
        context = context if context is not None else EvalContext()
        return self._pump_chunks(_build_frame(self.free_names, env), context)

    def _pump_chunks(self, frame, context):
        with context.evaluation_scope():
            token = context.cancellation
            if token is None:
                yield from self._fn(frame, context)
                return
            for chunk in self._fn(frame, context):
                token.raise_if_cancelled()
                yield chunk

    def _pump(self, frame, context):
        # The scope spans the whole iteration: activated on first next(),
        # closed when the pipeline is exhausted, abandoned (GeneratorExit)
        # or fails — releasing cursors even when chunk elements were
        # buffered but never consumed.
        probe = context.plan_probe
        token = context.cancellation
        budget = context.memory_budget
        with context.evaluation_scope():
            if probe is None and token is None and budget is None:
                for chunk in self._fn(frame, context):
                    yield from chunk
                return
            # Observed pump: a cancellation checkpoint at every chunk
            # boundary, the chunk buffer charged transiently (the chunk is
            # in memory from production until consumed), and the true
            # output cardinality committed only when the run drains
            # normally, so an abandoned stream never records a partial
            # count as the query's cardinality.
            chunks = self._fn(frame, context)
            note = _chunk_timer(context)
            if note is not None:
                chunks = _timed_chunks(chunks, note)
            total = 0
            for chunk in chunks:
                if token is not None:
                    token.raise_if_cancelled()
                total += len(chunk)
                if budget is None:
                    yield from chunk
                else:
                    budget.charge_elements(len(chunk))
                    try:
                        yield from chunk
                    finally:
                        budget.release_elements(len(chunk))
            if probe is not None:
                probe.complete(total)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        detail = "fully chunked" if self.fully_chunked else \
            "eager: " + ", ".join(self.eager_nodes)
        return f"<CompiledChunkedStream ({detail})>"


def compile_chunked(term: A.Expr) -> CompiledChunkedStream:
    """Lower an (optimized) NRC term into a chunk-at-a-time pipeline.

    Returns a :class:`CompiledChunkedStream`; call it with an
    :class:`~repro.core.nrc.eval.Environment` and an
    :class:`~repro.core.nrc.eval.EvalContext` (whose ``chunk_policy``
    governs the chunk-size ramp) to get the element iterator.
    """
    try:
        return CompiledChunkedStream(term)
    except RecursionError:
        raise TermTooDeepError("term nests too deeply to compile") from None


# ---------------------------------------------------------------------------
# Term fingerprints (compile-cache identity)
# ---------------------------------------------------------------------------

def _const_token(value: object) -> Tuple:
    """A type-exact token for a literal.

    Structural ``Expr`` equality uses Python ``==``, under which
    ``Const(True) == Const(1) == Const(1.0)`` — fine for rewrite fixpoints,
    unsound as a compile-cache key (the closure bakes the literal in).
    """
    try:
        hash(value)
    except TypeError:
        return ("unhashable", id(value))
    return (type(value).__name__, value)


def _freeze_request_value(value: object) -> object:
    if isinstance(value, dict):
        return ("dict", tuple(sorted(
            (key, _freeze_request_value(item)) for key, item in value.items())))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_freeze_request_value(item) for item in value))
    if isinstance(value, (set, frozenset)):
        return ("set", frozenset(_freeze_request_value(item) for item in value))
    return _const_token(value)


def term_fingerprint(expr: A.Expr) -> Tuple:
    """A hashable identity of a term suitable for caching compiled queries.

    Differs from structural equality in exactly the ways a compile cache
    needs:

    * **stricter** where closures bake detail in — literal *types*
      (``True`` vs ``1``), ``Cached.key``;
    * **looser** where compiled code is interchangeable — bound variables
      are de-Bruijn-indexed, so terms that differ only in the fresh binder
      names the desugarer mints share one compiled query.  Free names stay
      literal (they select top-level frame slots by name).
    """
    try:
        return _fingerprint(expr, ())
    except RecursionError:
        raise TermTooDeepError(
            "term nests too deeply to fingerprint") from None


def _fingerprint(expr: A.Expr, _scope: _Scope) -> Tuple:
    node_type = type(expr)
    name = node_type.__name__

    def sub(child: A.Expr, scope: _Scope = _scope) -> Tuple:
        return _fingerprint(child, scope)

    if node_type is A.Const:
        return (name, _const_token(expr.value))
    if node_type is A.Var:
        for index in range(len(_scope) - 1, -1, -1):
            if _scope[index] == expr.name:
                return (name, len(_scope) - 1 - index)
        return (name, "free", expr.name)
    if node_type is A.Lam:
        return (name, sub(expr.body, _scope + (expr.param,)))
    if node_type is A.Apply:
        return (name, sub(expr.func), sub(expr.arg))
    if node_type is A.RecordExpr:
        return (name, tuple((label, sub(value))
                            for label, value in expr.fields.items()))
    if node_type is A.Project:
        return (name, expr.label, sub(expr.expr))
    if node_type is A.VariantExpr:
        return (name, expr.tag, sub(expr.expr))
    if node_type is A.Case:
        branches = tuple((branch.tag, sub(branch.body, _scope + (branch.var,)))
                         for branch in expr.branches)
        default = None
        if expr.default is not None:
            default = sub(expr.default[1], _scope + (expr.default[0],))
        return (name, sub(expr.subject), branches, default)
    if node_type is A.Empty:
        return (name, expr.kind)
    if node_type is A.Singleton:
        return (name, expr.kind, sub(expr.expr))
    if node_type is A.Union:
        return (name, expr.kind, sub(expr.left), sub(expr.right))
    if node_type is A.Ext:
        return (name, expr.kind, sub(expr.source),
                sub(expr.body, _scope + (expr.var,)))
    if isinstance(expr, A.Ext):
        # An Ext subclass: its compiled loop may bake in parameters this
        # function cannot know about.  Subclasses declare them via a
        # ``fingerprint_extras()`` method (ParallelExt: scheduler settings);
        # without one, fall through to the sound identity key below.
        extras = getattr(expr, "fingerprint_extras", None)
        if extras is not None:
            return (name, expr.kind, sub(expr.source),
                    sub(expr.body, _scope + (expr.var,)), tuple(extras()))
    if node_type is A.Fold:
        return (name, sub(expr.func), sub(expr.init), sub(expr.source))
    if node_type is A.IfThenElse:
        return (name, sub(expr.cond), sub(expr.then_branch), sub(expr.else_branch))
    if node_type is A.PrimCall:
        return (name, expr.name, tuple(sub(arg) for arg in expr.args))
    if node_type is A.Let:
        return (name, sub(expr.value), sub(expr.body, _scope + (expr.var,)))
    if node_type is A.Deref:
        return (name, sub(expr.expr))
    if node_type is A.Scan:
        # args stay in insertion order: the compiled closure evaluates them
        # in that order, so it is part of the baked-in behavior.
        return (name, expr.driver, expr.kind,
                _freeze_request_value(expr.request),
                tuple((key, sub(arg)) for key, arg in expr.args.items()))
    if node_type is A.Cached:
        return (name, expr.key, sub(expr.expr))
    # Unknown node type (no native compiler): structural equality is too
    # loose to key a compile cache (it conflates True/1 and may ignore
    # baked-in attributes), so key on object identity — always sound, at the
    # price of never sharing across rebuilt terms.  The id stays valid
    # because the memoized CompiledQuery keeps its term alive.
    return (name, "identity", id(expr))
