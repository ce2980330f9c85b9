"""Compile-to-closures backend for NRC: the Kleisli engine's fast path.

The paper's Kleisli gets its speed from compiling CPL/NRC rather than walking
the tree.  This module lowers an (already optimized) NRC term two ways, each
behind one registry of per-node compilers:

* :func:`compile_term` — the **eager** lowering (``KleisliEngine.execute``).
  One bottom-up pass turns every node into a closure
  ``fn(frame: list, context: EvalContext) -> value`` returning a whole
  value.  Registry: ``_COMPILERS`` (:func:`register_compiler`, listed by
  :func:`supported_node_types`), filled by the ``_compile_*`` functions.
* :func:`compile_chunked` — the **chunked** lowering (``KleisliEngine.stream``).
  A node becomes a generator stage passing lists of at most K elements, and
  adjacent map/filter stages fuse into one loop per chunk.  Registry:
  ``_CHUNK_COMPILERS`` (:func:`register_chunk_compiler`, listed by
  :func:`chunkable_node_types`), filled by the ``_chunk_*`` functions;
  :class:`CompiledChunkedStream` runs the pipeline.

The third lowering is the interpreter, :class:`repro.core.nrc.eval.Evaluator`
(``mode="interpret"``).

Decided once, at compile time: dispatch (a direct closure call per node),
variables (each ``Var`` is a fixed slot of a flat frame list; a loop binder
reuses its slot), primitives, constructors and scan request templates, and
each ``Project``'s inline ``(directory, slot)`` cache — Section 4's
homogeneous-collection fast path.  A ``Lam`` snapshots its frame when built.

**Eager sections.**  Every node type the program defines has an eager
compiler (``ParallelExt`` registers its own); lowering a node of any other
type raises :class:`~repro.core.errors.EvaluationError` naming it, before a
driver is asked anything.  A node with no chunk compiler runs its eager
closure and the pipeline chunks the whole value
(``CompiledChunkedStream.eager_nodes``, ``EvalStatistics.stream_fallbacks``):
``Fold``, the ``index`` a local join probes, a ``Union`` whose operand kinds
:func:`~repro.core.nrc.structural.proven_collection_kind` cannot prove, and
scalar operators.  ``Cached`` is a deliberate materialization point and
counts as no fallback; nor does a ``Memo``, whose eager closure the pipeline
borrows as it does a ``Cached`` node's.

**Streaming rules.**  A drained stream yields exactly the eager value's
elements in order, with the same ``elements_fetched``; chunk sizes never
show in a value.

* A set-kind stage dedups as it goes (:func:`_dedup_set_chunks`), its
  seen-set carried across chunks.
* The ramp (:class:`_ChunkRamp`) starts at one element and doubles up to the
  run's :class:`ChunkPolicy` maximum, read from ``EvalContext.chunk_policy``
  at run time, so one pipeline cached by :func:`term_fingerprint` serves
  every plan.  A chunk is as big as its source declares or its rows say; no
  clock sizes it.
* A record head runs column-wise (:func:`_record_plan`, the ``vrows`` op),
  and a field ``x.f + c`` is one typed pass over its column
  (:func:`_column_arithmetic`).  A chunk that does not fit takes the
  per-item form, with the same values and errors.
* A loop whose body scans a driver by the loop variable batches its fetches
  (:func:`_batched_scan_loop`); a bind join (``BindScan``) runs the same
  loop in batches of ``remote_max_chunk``.  A ``ParallelExt`` or a bind join
  hands its tasks to the engine's scheduler through :func:`_scheduled`.

**Run-time layers.**  Compiled artifacts are immutable and shared by every
thread and session (the ``Project`` cache is one atomically swapped tuple);
what a run changes lives on its ``EvalContext``.  The layers around a run
reach it only through context fields that default to ``None`` and through
choke points every lowering already has:

* resilience (:mod:`repro.kleisli.resilience`) behind
  ``EvalContext.driver_executor`` / ``driver_executor_batch``, which every
  scan goes through;
* governance (:mod:`repro.kleisli.governance`): ``cancellation`` checked at
  chunk boundaries, eager loop heads and driver dispatch; ``memory_budget``
  charged at the unbounded materialization points; ``spill`` trading build
  sides and seen-sets for disk-backed ones;
* observability (:mod:`repro.obs`): ``trace`` spans at driver dispatch and
  ``chunk_sink`` timing per chunk, for a profiled or observed run only.

A run that sets none of them takes the plain code paths (the zero-governance
and zero-recorder contracts), and one that sets them computes the same value.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import itertools
import math
import operator
import time
from typing import Callable, Dict, List, Optional, Tuple, Type, Union

from ..errors import EvaluationError, TermTooDeepError, UnboundVariableError
from ..records import Record, RecordDirectory, distinct_records, records_on
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
    _MISSING,
    _memo_entry,
    _memoized,
    Closure,
    Environment,
    EvalContext,
    Evaluator,
    _CountingStream,
    bind_pair,
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
    applying context, so a closure that outlives its run — returned to user
    code — charges statistics to, and resolves drivers through, the run that
    calls it.  ``__call__`` (the bare Python-callable protocol) falls back to
    the creation context.
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
        # An interpreter closure bound into the run (e.g. a value an
        # interpreted run returned): evaluate it there.
        return Evaluator(context).apply_function(func, arg)
    if callable(func):
        return func(arg)
    raise EvaluationError(f"attempt to apply a non-function value {func!r}")


class _CompileState:
    """Per-``compile_term`` bookkeeping shared by the node compilers.

    ``eager`` names subtrees of a *streaming* lowering that had no
    chunk-wise form and were lowered eagerly instead.
    """

    __slots__ = ("n_free", "eager")

    def __init__(self, n_free: int):
        self.n_free = n_free
        self.eager: List[str] = []


_Scope = Tuple[str, ...]
_CompiledFn = Callable[[list, EvalContext], object]
_COMPILERS: Dict[Type[A.Expr], Callable[[A.Expr, _Scope, _CompileState], _CompiledFn]] = {}


def register_compiler(node_type: Type[A.Expr]):
    """Register a closure compiler for an AST node type.

    Dispatch is by *exact* type, so subclasses with different semantics (for
    example :class:`~repro.core.optimizer.parallel.ParallelExt`) are not
    silently compiled as their base class: each registers its own compiler
    with this decorator, and lowering an unregistered type is an error.

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
        raise EvaluationError(
            f"no compiler for node type {type(expr).__name__}")
    return compiler(expr, scope, state)


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
        (directory.slots[label] + 1, _compile(value, scope, state))
        for label, value in expr.fields.items()
    )
    size = len(directory) + 1

    def run(frame, context):
        # The record's own layout: the directory at 0, every field slot
        # overwritten below.
        values = [directory] * size
        for slot, fn in slot_fns:
            values[slot] = fn(frame, context)
        return tuple.__new__(Record, values)

    return run


@register_compiler(A.Project)
def _compile_project(expr: A.Project, scope, state):
    label = expr.label
    # The subject: a bound variable's frame slot, read inline with no call,
    # or the compiled subject.  One cell for either keeps every compiled
    # projection as small as a cached plan needs it.
    source = _slot_of(scope, expr.expr.name) if type(expr.expr) is A.Var else None
    if source is None or source < state.n_free:
        source = _compile(expr.expr, scope, state)
    # Inline Remy fast path: cache (directory, record index) as one tuple
    # so the closure stays safe when shared across scheduler threads.
    cache = [(None, 0)]

    def run(frame, context):
        subject = frame[source] if type(source) is int else source(frame, context)
        if type(subject) is Record:
            cached = cache[0]
            if cached[0] is subject[0]:
                return subject[cached[1]]
            directory = subject[0]
            slot = directory.slot_of(label) + 1
            cache[0] = (directory, slot)
            return subject[slot]
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
    """``Cached``: computed on its key's first use in the run and kept in the
    run's ``context.cache``; a lazy stream is drained into a list charged to
    the budget (ungoverned, this is ``cache_payload``).

    A ``build_side`` node is a generator source (the blocked join's inner
    side): it is only iterated, so under a spill manager its rows go to a
    :class:`~repro.kleisli.spill.SpilledList` instead, whose files go with
    the run.  A reader of that entry that needs a collection (``count``,
    ``member``) turns them back into one.
    """
    inner_fn = _compile(expr.expr, scope, state)
    key = expr.key

    def run(frame, context):
        cache = context.cache
        stats = context.statistics
        value = cache.get(key, _MISSING)
        if value is not _MISSING:
            stats.cache_hits += 1
            if build_side or context.spill is None or not is_lazy_stream(value):
                return value    # (else: spilled rows, wanted as a collection)
        else:
            stats.cache_misses += 1
            value = inner_fn(frame, context)
        if is_lazy_stream(value):
            if build_side and context.spill is not None:
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


@register_compiler(A.Memo)
def _compile_memo(expr: A.Memo, scope, state):
    """``Memo``: the aggregate once per exact key value in the run's
    ``context.cache``, by the interpreter's rule (``eval._memoized``)."""
    inner_fn = _compile(expr.expr, scope, state)
    key_fns = [_compile(key, scope, state) for key in expr.keys]
    tag = expr.key

    def run(frame, context):
        try:
            entry = _memo_entry(tag, [key_fn(frame, context) for key_fn in key_fns])
        except Exception:
            entry = None    # the aggregate raises it, if it reaches that key
        return _memoized(context, entry, inner_fn, frame, context)

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
    top-level frame.
    """

    __slots__ = ("expr", "free_names", "_fn")

    def __init__(self, expr: A.Expr):
        self.expr = expr
        self.free_names: Tuple[str, ...] = tuple(sorted(free_variables(expr)))
        self._fn = _compile(expr, self.free_names,
                            _CompileState(n_free=len(self.free_names)))

    def __call__(self, env: Optional[Environment] = None,
                 context: Optional[EvalContext] = None) -> object:
        context = context if context is not None else EvalContext()
        return self._fn(_build_frame(self.free_names, env), context)


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
    A physical plan sets only ``remote_max_chunk``; ``max_chunk`` is the
    caller's override (``KleisliEngine.stream(chunk_policy=...)``), and
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
    or ``None``: only a profile times chunks."""
    sink = context.chunk_sink
    return None if sink is None else sink.note_chunk


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
        if ((type(expr) is A.PrimCall and expr.name == "probe")
                or (type(expr) is A.Project and type(expr.expr) is A.Var)):
            # The group an index already holds, or a collection a bound
            # record holds (a bind join's ``p.result``): a leaf, nothing
            # eager to it.
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
# A Cached node is a deliberate materialization point: the run's cache
# stores whole collections, so the pipeline evaluates it eagerly (hitting the
# cache) and chunks the cached value — exactly the leaf treatment, and
# likewise not counted as a fallback.  The pipeline only iterates it, so it
# is a build side (_compile_source).
register_chunk_compiler(A.Cached)(_chunk_leaf)
# A Memo is scalar wherever the caching stage puts it (an aggregate): the
# pipeline borrows its eager closure, as it does a Cached node's.
register_chunk_compiler(A.Memo)(_chunk_leaf)


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


def _dedup_set_chunks(chunk_fn: _ChunkFn, rows: Optional[tuple] = None) -> _ChunkFn:
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

    ``rows`` is the stage's row form, ``(directory, row_fn)``: ``row_fn``
    yields the value tuples of record heads on one static directory, so the
    stage dedups before construct and only survivors become Records.  The
    wrapper keeps it as ``rows`` for an enclosing union; the stage itself
    does not, so no stage refers to itself (a dropped pipeline is freed by
    reference counting, never left to the cycle collector).
    """

    directory, source_fn = rows or (None, chunk_fn)

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
    chunks.rows = rows
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
        left_rows = getattr(left_fn, "rows", None)
        right_rows = getattr(right_fn, "rows", None)
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
        rows = None
        if left_rows and right_rows and left_rows[0] is right_rows[0]:
            # Every operand ends in a record head on one directory: the
            # chain has a row form too, and the seen-set keys on its tuples.
            rows = (left_rows[0], functools.partial(
                chunks, left_fn=left_rows[1], right_fn=right_rows[1]))
        return _dedup_set_chunks(chunks, rows)
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


def _dispatch_scan_batch(driver: str, requests: List[dict],
                         context: EvalContext) -> list:
    """One batch of scan requests, through
    ``EvalContext.driver_executor_batch`` (one ``Driver.execute_batch``
    call) when the engine provides it, else one request at a time."""
    batch_executor = context.driver_executor_batch
    if batch_executor is not None:
        return list(batch_executor(driver, requests))
    executor = context.driver_executor
    if executor is None:
        raise EvaluationError(
            f"no driver executor available to satisfy scan of driver {driver!r}"
        )
    return [executor(driver, request) for request in requests]


def _scheduled(function, tasks, max_workers: int, adaptive: bool,
               context: EvalContext):
    """``function`` over ``tasks``, replies in task order, through a
    :class:`~repro.kleisli.scheduler.Scheduler` window of ``max_workers``.

    A pinned window of one, or a loop of zero or one task, has nothing to
    overlap: it runs on the caller's thread with no scheduler and touches
    no worker thread (a pinned window of one pulls no task ahead).
    Otherwise the window hands its tasks to the run's engine's one worker
    set (a scheduler outside an engine has a set of its own); closing the
    generator waits for the tasks in flight, so a loop in the body of
    another, run once per outer element, leaves nothing running.
    """
    tasks = iter(tasks)
    head: list = []
    if max_workers > 1 or adaptive:
        head = list(itertools.islice(tasks, 2))
    if len(head) < 2:
        yield from map(function, itertools.chain(head, tasks))
        return
    from ...kleisli.scheduler import Scheduler  # avoids a cycle

    engine = context.engine
    scheduler = Scheduler(max_workers, adaptive=adaptive, workers=(
        None if engine is None else engine._worker_set()))
    yield from scheduler.prefetch(function, itertools.chain(head, tasks))


def _batched_scan_loop(expr: A.Ext, scope: _Scope, state: _CompileState,
                       flatten: bool) -> _ChunkFn:
    """The one batched-request loop: a scan per source element, sent in
    batches of one ``execute_batch`` round trip each.

    ``expr`` is an ``Ext`` whose body is a ``Scan`` (the unoptimized loop:
    one batch per source chunk, capped at the scan driver's policy maximum,
    sent one after another) or a :class:`~repro.core.nrc.ast.BindScan` (the
    bind join: batches of exactly ``remote_max_chunk`` across source chunks,
    ``max_workers`` of them in flight, moving if ``adaptive``).  Requests
    are built on the consumer's thread, so a batch task only waits on the
    server; each reply is a cancellation checkpoint.  ``flatten`` yields
    each result's elements (the ``Ext`` over a scan, and an ``Ext`` reading
    ``p.result`` of a bind join, which also counts its own iterations);
    otherwise each batch's ``[item, result]`` pairs are one chunk.  The
    caller dedups a set-kind loop.
    """
    source_fn = _compile_chunk(expr.source, scope, state)
    scan = expr.body
    driver = scan.driver
    base_request = dict(scan.request)
    arg_fns = tuple((key, _compile(arg, scope + (expr.var,), state))
                    for key, arg in scan.args.items())
    slot = len(scope)
    bound = type(expr) is A.BindScan
    loops = 2 if bound and flatten else 1
    max_workers = expr.max_workers if bound else 1
    adaptive = bound and expr.adaptive

    def chunks(frame, context):
        stats = context.statistics
        token = context.cancellation
        loop_frame = _extended(frame, None)
        policy = _active_policy(context)
        maximum = policy.max_chunk_for(driver)
        size = policy.remote_max_chunk if bound else maximum
        note = _chunk_timer(context)
        stage = "scan:" + driver

        def batch(items):
            stats.ext_iterations += loops * len(items)
            stats.scan_requests += len(items)
            requests = []
            for item in items:
                loop_frame[slot] = item
                request = dict(base_request)
                for key, fn in arg_fns:
                    request[key] = fn(loop_frame, context)
                requests.append(request)
            return items, requests

        def batches():
            pending: list = []
            for chunk in source_fn(frame, context):
                if not bound:
                    for start in range(0, len(chunk), size):
                        yield batch(chunk[start:start + size])
                    continue
                pending.extend(chunk)
                while len(pending) >= size:
                    yield batch(pending[:size])
                    del pending[:size]
            if pending:
                yield batch(pending)

        def send(task):
            items, requests = task
            if note is None:
                return items, _dispatch_scan_batch(driver, requests, context)
            began = time.perf_counter()
            results = _dispatch_scan_batch(driver, requests, context)
            note(stage, len(requests), time.perf_counter() - began)
            return items, results

        # ONE ramp for a flattened stage: it starts at 1 for the first chunk
        # (TTFR) and keeps its reached size across results.
        ramp = _ChunkRamp(maximum)
        replies = _scheduled(send, batches(), max_workers, adaptive, context)
        with contextlib.closing(replies):
            for items, results in replies:
                if token is not None:
                    token.raise_if_cancelled()
                for index, result in enumerate(results):
                    if isinstance(result, _COLLECTIONS):
                        stats.scan_elements += len(result)
                    else:
                        # A lazy cursor is scope-registered as soon as it
                        # arrives, so an abandoned pipeline still closes it.
                        result = results[index] = scan_stream(result, context)
                if not flatten:
                    yield [bind_pair(item, materialise(result))
                           for item, result in zip(items, results)]
                    continue
                for result in results:
                    if isinstance(result, _COLLECTIONS):
                        yield from ramp.emit_sliced(result._elements)
                    else:
                        yield from ramp.emit_pulled(iter(result))

    return chunks


def _flattened_bind(expr: A.Ext) -> bool:
    """Is ``expr`` ``U{ p.result | \\p <- BindScan(..) }`` (the hoisted form
    of a loop whose body was the scan)?"""
    return (type(expr.source) is A.BindScan
            and type(expr.body) is A.Project and expr.body.label == "result"
            and type(expr.body.expr) is A.Var and expr.body.expr.name == expr.var)


@register_chunk_compiler(A.BindScan)
def _chunk_bind_scan(expr: A.BindScan, scope, state):
    chunks = _batched_scan_loop(expr, scope, state, flatten=False)
    return _dedup_set_chunks(chunks) if expr.kind == "set" else chunks


@register_compiler(A.BindScan)
def _compile_bind_scan(expr: A.BindScan, scope, state):
    """The eager bind join drains its chunk lowering."""
    chunk_fn = _chunk_bind_scan(expr, scope, state)
    kind = expr.kind

    def run(frame, context):
        return _drained(chunk_fn(frame, context), kind, context)

    return run


def _drained(chunks, kind: str, context: EvalContext):
    """``chunks`` (an iterator of lists) as one collection of ``kind``,
    closed however the drain ends.  The buffer is a materialization point
    like the eager ``Ext``'s: quantum-batched budget charges, the remainder
    at the end."""
    budget = context.memory_budget
    elements: list = []
    charged = 0
    with contextlib.closing(chunks):
        for chunk in chunks:
            elements.extend(chunk)
            if budget is not None and len(elements) - charged >= 256:
                budget.charge_elements(len(elements) - charged)
                charged = len(elements)
    if budget is not None and len(elements) > charged:
        budget.charge_elements(len(elements) - charged)
    context.statistics.note_intermediate(len(elements))
    return make_collection(kind, elements)


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
        if "const" in (first[0], second[0]):
            const_is_second = second[0] == "const"
            operand, const = (first, second) if const_is_second else (second, first)
            # Constant operand: its value checks run HERE, at compile time
            # (fused_primitive_with_const), leaving one check per element.
            fused = fused_primitive_with_const(expr.name, const[1],
                                               const_is_second)
            if fused is not None:
                if operand == ("item",):
                    return ("call", lambda frame, context, _fn=fused: _fn)

                def build_fused(frame, context, _plan=operand, _fn=fused):
                    operand_fn = _realize(_plan, frame, context)
                    return lambda item: _fn(operand_fn(item))

                return ("call", build_fused)
            if operand == ("item",):
                value = const[1]
                if const_is_second:
                    return ("call", lambda frame, context, _f=function, _v=value:
                            (lambda item: _f(item, _v)))
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
            cache = [(None, 0)]  # as in _compile_project

            def project(item):
                subject = item if direct else subject_fn(item)
                if type(subject) is Record:
                    cached = cache[0]
                    if cached[0] is subject[0]:
                        return subject[cached[1]]
                    directory = subject[0]
                    value_slot = directory.slot_of(_label) + 1
                    cache[0] = (directory, value_slot)
                    return subject[value_slot]
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
_NUMBERS = frozenset((int, float))
_COLUMN_ARITHMETIC = {"add": operator.add, "sub": operator.sub,
                      "mul": operator.mul}


def _column_arithmetic(value: A.Expr, scope: _Scope, state: _CompileState,
                       slot: int) -> Optional[tuple]:
    """``(label, op, const, const_is_second)`` for a head field ``x.label op
    const`` or ``const op x.label`` (``x`` the loop variable, ``op`` one of
    ``+ - *``, ``const`` an ``int``/``float`` literal), else ``None``."""
    if (type(value) is not A.PrimCall or len(value.args) != 2
            or value.name not in _COLUMN_ARITHMETIC):
        return None
    left, right = value.args
    for subject, const, const_is_second in ((left, right, True),
                                            (right, left, False)):
        if (type(const) is A.Const and type(const.value) in _NUMBERS
                and type(subject) is A.Project
                and _item_plan(subject.expr, scope, state, slot) == ("item",)):
            return (subject.label, _COLUMN_ARITHMETIC[value.name], const.value,
                    const_is_second)
    return None


def _record_plan(expr: A.RecordExpr, scope: _Scope, state: _CompileState,
                 slot: int) -> Optional[tuple]:
    """The item-plan of a record head: ``("record", build, head_ops)``.

    ``build`` realizes the per-item form like any ``"call"`` plan.  A stage
    whose whole body is the head ends in ``head_ops`` instead (see "Record
    heads" in the module docstring): ``vrows`` realizes ``rows(chunk)``, the
    chunk's value tuples on the head's directory, and ``records`` builds on
    them.  Fields projecting the loop variable are gathered by one
    ``itemgetter`` per source slot; a field ``x.f op c`` is one typed pass
    over its gathered column (:func:`_column_arithmetic`); the others run
    their item-plan beside them; a chunk the gather or a column's type gate
    cannot take — and the typed error at its offending row — goes to the
    per-item form.
    """
    directory = RecordDirectory.for_labels(expr.fields)
    fields: List[Tuple[int, tuple]] = []  # (output slot, item-plan), in source order
    projected: Dict[int, str] = {}  # output slot -> label read off the loop variable
    arithmetic: Dict[int, tuple] = {}  # output slot -> (op, const, const_is_second)
    for label, value in expr.fields.items():
        plan = _item_plan(value, scope, state, slot)
        if plan is None:
            return None
        out = directory.slots[label]
        fields.append((out, plan))
        if type(value) is A.Project and _item_plan(value.expr, scope, state, slot) == ("item",):
            projected[out] = value.label
        else:
            column = _column_arithmetic(value, scope, state, slot)
            if column is not None:
                projected[out] = column[0]
                arithmetic[out] = column[1:]
    width = len(directory)

    def build(frame, context):
        slot_fns = [(out + 1, _realize(plan, frame, context)) for out, plan in fields]

        def record(item):
            values = [directory] * (width + 1)  # as in _compile_record
            for out, fn in slot_fns:
                values[out] = fn(item)
            return tuple.__new__(Record, values)

        return record

    computed = [(out, plan) for out, plan in fields if out not in projected]
    if computed != sorted(computed, key=operator.itemgetter(0)):
        # Columns fill in slot order; computed fields in another source order
        # could report another of two errors than the per-item form does.
        return ("call", build)

    def slot_getters(source) -> Optional[dict]:
        if type(source) is not RecordDirectory or any(
                label not in source.slots for label in projected.values()):
            return None
        return {out: operator.itemgetter(source.slots[label] + 1)
                for out, label in projected.items()}

    def build_rows(frame, context):
        record = build(frame, context)
        columns = {out: _realize(plan, frame, context) for out, plan in computed}
        getters: Dict[object, Optional[dict]] = {}  # by source directory

        def rows(chunk):
            getter = None
            filled = {}  # output slot -> its arithmetic column
            if projected:
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
                    return [record(item)[1:] for item in chunk]
                # Arithmetic columns first: past the type gate only an
                # OverflowError can stop one, and any refusal hands the whole
                # chunk to the per-item form before another field has run.
                for out, (op, const, const_is_second) in arithmetic.items():
                    column = list(map(getter[out], chunk))
                    if not _NUMBERS.issuperset(map(type, column)):
                        return [record(item)[1:] for item in chunk]
                    try:
                        filled[out] = (
                            list(map(op, column, itertools.repeat(const)))
                            if const_is_second else
                            list(map(op, itertools.repeat(const), column)))
                    except OverflowError:  # an int too big for a float
                        return [record(item)[1:] for item in chunk]
            if not width:
                return [()] * len(chunk)
            return list(zip(*[filled[out] if out in filled
                              else map(getter[out], chunk) if out in projected
                              else map(columns[out], chunk)
                              for out in range(width)]))

        return rows

    return ("record", build, (("vrows", build_rows), ("records", directory)))


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
            chunks = _batched_scan_loop(expr, scope, state, flatten=True)
        elif _flattened_bind(expr):
            chunks = _batched_scan_loop(expr.source, scope, state, flatten=True)
        else:
            return _chunk_ext_generic(expr, scope, state)
        return _dedup_set_chunks(chunks) if expr.kind == "set" else chunks

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
                    out = list(records_on(op[1], out))
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
        rows = None
        if ops[-1][0] == "records":
            # The row form stops short of building records: the dedup does it.
            rows = (ops[-1][1], functools.partial(chunks, ops=ops[:-1]))
        return _dedup_set_chunks(chunks, rows)
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
    non-collection value is yielded as a single element); a context's
    ``chunk_sink`` observes the chunk boundaries.  The whole run happens
    inside a fresh :class:`~repro.core.nrc.eval.EvalScope` on the supplied
    context: every cursor the pipeline opens — source scans *and*
    body-level scans — is released when the iterator is exhausted, closed
    early or fails, including those behind buffered-but-unconsumed chunk
    elements, and it settles a run's ``context.finish`` (:meth:`_pump`).

    ``eager_nodes`` names node types that had no chunk-wise lowering and ran
    eagerly inside the pipeline.
    """

    __slots__ = ("expr", "free_names", "eager_nodes", "_fn")

    def __init__(self, expr: A.Expr):
        self.expr = expr
        self.free_names: Tuple[str, ...] = tuple(sorted(free_variables(expr)))
        state = _CompileState(n_free=len(self.free_names))
        self._fn = self._lower_toplevel(expr, self.free_names, state)
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
        if node_type in (A.Var, A.Const, A.Cached, A.Memo):
            # Value leaves (and Cached, a materialization point, or a
            # Memo, a scalar): evaluate,
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
    def fully_chunked(self) -> bool:
        """Every node lowered chunk-wise (no eager sections)."""
        return not self.eager_nodes

    def __call__(self, env: Optional[Environment] = None,
                 context: Optional[EvalContext] = None):
        context = context if context is not None else EvalContext()
        return self._pump(_build_frame(self.free_names, env), context)

    def _pump(self, frame, context):
        # The run's one generator.  The scope spans the whole iteration and
        # closes however it ends, releasing cursors even behind buffered,
        # unconsumed chunk elements.  A run to settle parks first at a
        # valueless ``yield`` (the engine advances past it) and is settled
        # after the scope; ``rows``: elements a traced run's consumer got.
        finish = context.finish
        note = _chunk_timer(context)
        token = context.cancellation
        budget = context.memory_budget
        rows = None if context.trace is None else 0.0
        try:
            if finish is not None:
                yield
            with context.evaluation_scope():
                if note is None and token is None and budget is None:
                    for chunk in self._fn(frame, context):
                        yield from chunk
                else:
                    # Observed pump: a cancellation checkpoint per chunk,
                    # the chunk buffer charged until consumed, and each
                    # chunk's production (resumed pipeline to chunk ready)
                    # timed for a profile.
                    began = 0.0 if note is None else time.perf_counter()
                    for chunk in self._fn(frame, context):
                        if note is not None:
                            note("pipeline", len(chunk),
                                 time.perf_counter() - began)
                        if token is not None:
                            token.raise_if_cancelled()
                        if budget is not None:
                            budget.charge_elements(len(chunk))
                        try:
                            if rows is None:
                                yield from chunk
                            else:
                                for element in chunk:
                                    rows += 1
                                    yield element
                        finally:
                            if budget is not None:
                                budget.release_elements(len(chunk))
                        if note is not None:
                            began = time.perf_counter()
        except BaseException as error:
            if finish is not None:
                finish(error, rows)
            raise
        if finish is not None:
            finish(None, rows)

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

#: One name per literal type: a builtin type's ``__name__`` is a new string
#: on every read, which every fingerprint would keep.  Keyed by the type, so
#: a literal's token hashes no fresh string; no query text adds a type.
_TYPE_NAMES: Dict[type, str] = {}

#: Literals whose parts compare with ``==`` (``1 == 1.0 == True``, ``0.0 ==
#: -0.0``): their token spells each part out.
_STRUCTURED = frozenset((Record, CSet, CBag, CList, Variant, tuple, frozenset))


def _const_token(value: object) -> Tuple:
    """A type-exact token for a literal, down to a record's or a
    collection's parts.

    Structural ``Expr`` equality uses Python ``==``, under which
    ``Const(True) == Const(1) == Const(1.0)`` — fine for rewrite fixpoints,
    unsound as a compile-cache key (the closure bakes the literal in).
    """
    try:
        hash(value)
    except TypeError:
        return ("unhashable", id(value))
    kind = type(value)
    if kind is float and value == 0.0 and math.copysign(1.0, value) < 0.0:
        return ("-float", value)  # -0.0 == 0.0, and both hash alike
    name = _TYPE_NAMES.get(kind) or _TYPE_NAMES.setdefault(kind, kind.__name__)
    if kind in _STRUCTURED:
        return (name, _freeze_request_value(value))
    return (name, value)


def _freeze_request_value(value: object) -> object:
    if isinstance(value, Record):
        return ("record", tuple(
            (label, _freeze_request_value(item)) for label, item in value.items()))
    if isinstance(value, dict):
        return ("dict", tuple(sorted(
            (key, _freeze_request_value(item)) for key, item in value.items())))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_freeze_request_value(item) for item in value))
    if isinstance(value, (set, frozenset)):
        return ("set", frozenset(_freeze_request_value(item) for item in value))
    if isinstance(value, (CSet, CBag, CList)):  # in order: stricter than a set's ==
        return (type(value).__name__, tuple(_freeze_request_value(item) for item in value))
    if isinstance(value, Variant):
        return ("variant", value.tag, _freeze_request_value(value.value))
    return _const_token(value)


def term_fingerprint(expr: A.Expr) -> Tuple:
    """A hashable identity of a term suitable for caching compiled queries.

    Differs from structural equality in exactly the ways a compile cache
    needs:

    * **stricter** where closures bake detail in — literal *types*
      (``True`` vs ``1``), a ``Cached.key`` the caller chose;
    * **looser** where compiled code is interchangeable — bound variables
      are de-Bruijn-indexed, so terms that differ only in the fresh binder
      names the desugarer mints share one compiled query.  Free names stay
      literal (they select top-level frame slots by name).

    It is one flat tuple, written in one preorder pass: each node gives its
    class name, its fixed fields, then its children in place.  A
    variable-length part (record fields, primitive or scan arguments,
    ``Case`` branches, ``fingerprint_extras``) is preceded by its length and
    a ``Case`` default by a marker, so a node's name and counts fix where it
    ends.  The tuple decodes one way only: two terms get equal fingerprints
    exactly when trees of the same tokens, a tuple per node, are equal.
    """
    tokens: List[object] = []
    try:
        _fingerprint(expr, (), tokens)
    except RecursionError:
        raise TermTooDeepError(
            "term nests too deeply to fingerprint") from None
    return tuple(tokens)


#: The fixed fields of a node with no binder and a fixed number of
#: children; the children follow in ``children()`` order.
_FIELDS: Dict[Type[A.Expr], Tuple[str, ...]] = {
    A.Apply: (), A.Fold: (), A.IfThenElse: (), A.Deref: (),
    A.Empty: ("kind",), A.Singleton: ("kind",), A.Union: ("kind",),
    A.Project: ("label",), A.VariantExpr: ("tag",),
}


def _fingerprint(expr: A.Expr, scope: _Scope, out: List[object]) -> None:
    """Append the preorder tokens of ``expr`` (see :func:`term_fingerprint`)."""
    node_type = type(expr)
    out.append(node_type.__name__)
    fields = _FIELDS.get(node_type)
    if fields is not None:
        for field in fields:
            out.append(getattr(expr, field))
        for child in expr.children():
            _fingerprint(child, scope, out)
    elif node_type is A.PrimCall:
        out += (expr.name, len(expr.args))
        for arg in expr.args:
            _fingerprint(arg, scope, out)
    elif node_type is A.Var:
        name = expr.name
        out += (scope[::-1].index(name),) if name in scope else ("free", name)
    elif node_type is A.Const:
        out += _const_token(expr.value)
    elif node_type is A.RecordExpr:
        out.append(len(expr.fields))
        for label, value in expr.fields.items():
            out.append(label)
            _fingerprint(value, scope, out)
    elif node_type is A.Ext or (isinstance(expr, A.Ext)
                                and hasattr(expr, "fingerprint_extras")):
        # An Ext subclass declares what its compiled loop bakes in beyond
        # the Ext structure in ``fingerprint_extras()`` (ParallelExt,
        # BindScan: the window); one without it takes the identity key.
        extras = () if node_type is A.Ext else tuple(expr.fingerprint_extras())
        out += (expr.kind, len(extras), *extras)
        _fingerprint(expr.source, scope, out)
        _fingerprint(expr.body, scope + (expr.var,), out)
    elif node_type is A.Let:
        _fingerprint(expr.value, scope, out)
        _fingerprint(expr.body, scope + (expr.var,), out)
    elif node_type is A.Lam:
        _fingerprint(expr.body, scope + (expr.param,), out)
    elif node_type is A.Case:
        _fingerprint(expr.subject, scope, out)
        out.append(len(expr.branches))
        for branch in expr.branches:
            out.append(branch.tag)
            _fingerprint(branch.body, scope + (branch.var,), out)
        out.append(expr.default is not None)
        if expr.default is not None:
            _fingerprint(expr.default[1], scope + (expr.default[0],), out)
    elif node_type is A.Scan:
        # args stay in insertion order: the compiled closure evaluates them
        # in that order, so it is part of the baked-in behavior.
        out += (expr.driver, expr.kind, _freeze_request_value(expr.request),
                len(expr.args))
        for key, arg in expr.args.items():
            out.append(key)
            _fingerprint(arg, scope, out)
    elif node_type is A.Cached:
        # A content-derived key spells out the tokens of ``expr`` (a hoisted
        # subquery: no binder of the scope is free in it), so it is left out;
        # kept, nested subqueries would repeat their content at every level.
        out.append(None if expr.key.startswith(A.Cached.CONTENT_PREFIX) else expr.key)
        _fingerprint(expr.expr, scope, out)
    elif node_type is A.Memo:
        # Its key is always its own content's: these tokens.
        out.append(len(expr.keys))
        for child in expr.children():
            _fingerprint(child, scope, out)
    else:
        # Unknown node type (no native compiler): key on object identity —
        # sound whatever it bakes in, never shared across rebuilt terms.  The
        # id stays valid because the memoized CompiledQuery keeps its term.
        out += ("identity", id(expr))
