"""Laziness and bounded concurrency for remote inner loops.

"Rather than sequentially sending values of x to S, we should be able to
exploit the fact that many data servers can handle several requests
simultaneously ... We have therefore introduced a primitive that retrieves
elements from a collection in parallel and returns the union of the results
... Again, rules are introduced to recognize when a function accessing a
remote database appears in an inner loop.  In introducing such parallelism, we
must be careful ... the server S may only be able to handle a limited number
of requests at a time, say five."

* :class:`ParallelExt` is that primitive: an ``Ext`` whose body is evaluated
  for several source elements at once, bounded by ``max_workers`` (the
  window also bounds unconsumed replies, the second concern the paper raises).
  The bodies run on the engine's one set of worker threads, shared by every
  loop of every run; a loop nested in another's body runs its tasks on the
  outer task's thread when the set is busy, so a nest never waits for a
  thread (see :mod:`repro.kleisli.scheduler`).
* "Say five" is a property of the *server*, not of one loop: nested parallel
  loops and concurrent sessions reach the same server, so the bound that
  protects it is the per-driver in-flight gate of
  :meth:`~repro.kleisli.engine.KleisliEngine.driver_executor`, as wide as the
  driver's declared ``max_concurrent_requests``.  ``max_workers`` only sizes
  one loop's fan-out; requests past the server's cap queue at the gate
  instead of being rejected.
* A loop is *fixed* or *moving*, decided from declarations alone.  Fixed —
  every remote server its body calls declared a cap — it is pinned at the
  narrowest of them.  Moving — some server declared nothing — it starts at
  five (``OptimizerConfig.parallel_max_workers``) and narrows to what the
  server admitted each time one rejects it (the paper's [43]; see
  :mod:`repro.kleisli.scheduler`).
* A server that ships a batch in one round trip
  (``Driver.batch_single_round_trip`` with a native ``execute_batch``) is
  sent *batches*, not single requests: :func:`make_bind_join_rule_set` runs
  first and turns a loop whose request depends only on the loop variable
  into a bind join (:class:`~repro.core.nrc.ast.BindScan`), whose requests
  go out in batches of the plan's ``remote_max_chunk``, as many batches at
  once as the loop's window (fixed or moving as above).  Measured on the
  DOE query over 2 ms servers: 5 round trips instead of 75, and half the
  wall time.
* :func:`make_parallel_rule_set` recognises the loops left whose body issues
  a request to a *remote* driver with arguments depending on the loop
  variable — a server that takes one request per round trip — and rewrites
  them into :class:`ParallelExt`: one request per task.
"""

from __future__ import annotations

import itertools
from contextlib import closing
from typing import Callable, Iterable, Iterator, List, Optional

from ..nrc import ast as A
from ..nrc.eval import Environment, Evaluator
from ..nrc.eval import iterate_source as iter_source
from ..nrc.eval import materialise
from ..nrc.rewrite import Rule, RuleSet
from ..nrc.structural import proven_collection_kind, register_kind_prover
from ..values import iter_collection

__all__ = ["ParallelExt", "make_bind_join_rule_set", "make_parallel_rule_set"]


class ParallelExt(A.Ext):
    """An ``Ext`` evaluated with bounded parallelism over the source elements.

    A :class:`~repro.kleisli.scheduler.Scheduler` window of ``max_workers``
    body evaluations is in flight.  ``adaptive`` is the moving bit the
    parallel rule derives from declarations: clear when every remote server
    the body calls declared a cap (the window stays at ``max_workers``, the
    narrowest cap), set when one declared nothing (the window starts at
    ``max_workers`` and narrows to what the server admitted on each
    rejection, re-issuing the rejected request).
    """

    __slots__ = ("max_workers", "adaptive")

    def __init__(self, var: str, body: A.Expr, source: A.Expr, kind: str = "set",
                 max_workers: int = 5, adaptive: bool = False):
        super().__init__(var, body, source, kind)
        self.max_workers = max_workers
        self.adaptive = adaptive

    def rebuild(self, children):
        return ParallelExt(self.var, children[0], children[1], self.kind,
                           self.max_workers, self.adaptive)

    def _key(self):
        return super()._key() + (self.max_workers, self.adaptive)

    def fingerprint_extras(self):
        """Parameters the compiled loop bakes in beyond the Ext structure
        (consulted by :func:`repro.core.nrc.compile.term_fingerprint`)."""
        return (self.max_workers, self.adaptive)


# The kind proof dispatches on exact type, so ParallelExt must register its
# own prover (both its lowerings build the result with the declared kind,
# exactly like Ext) — without this, a Union over a parallelised operand
# would lose its streaming lowering.
register_kind_prover(ParallelExt)(lambda expr: expr.kind)


def _replies(expr: ParallelExt, tasks: Iterable[list], run_body, context
             ) -> Iterator[list]:
    """The one reply loop behind every lowering of :class:`ParallelExt`.

    ``tasks`` yields lists of source elements (every lowering hands
    one-element lists); each task's result elements come back as one list,
    in task order, through the window of
    :func:`repro.core.nrc.compile._scheduled`, whose tasks run on the
    engine's one worker set (or on the consumer's thread when every worker
    is busy).  ``ext_iterations`` and the cancellation checkpoint (one per
    reply: a body that never reaches a driver has no other) live here.
    Close the generator to wait for the tasks in flight — both callers do.
    """
    stats = context.statistics
    token = context.cancellation

    def run_task(items):
        out: List[object] = []
        for item in items:
            out.extend(iter_collection(materialise(run_body(item))))
        return len(items), out

    replies = C._scheduled(run_task, tasks, expr.max_workers, expr.adaptive,
                           context)
    with closing(replies):
        for consumed, out in replies:
            if token is not None:
                token.raise_if_cancelled()
            stats.ext_iterations += consumed
            yield out


def _run_parallel_loop(expr: ParallelExt, source, run_body, context):
    """Eager ParallelExt (the interpreter arm and the compiled closure
    differ only in ``run_body``): every reply drained into the result."""
    tasks = [[item] for item in iter_source(source)]
    return C._drained(_replies(expr, tasks, run_body, context), expr.kind, context)


def _evaluate_parallel_ext(evaluator: Evaluator, expr: ParallelExt, env: Environment):
    """Evaluate the body for a window of source elements concurrently."""
    def run_body(item):
        return evaluator._eval(expr.body, env.child(expr.var, item))

    return _run_parallel_loop(expr, evaluator._eval(expr.source, env),
                              run_body, evaluator.context)


# Register the node with the evaluator's dispatch table.
Evaluator._DISPATCH[ParallelExt] = _evaluate_parallel_ext


# -- closure-compiler support -------------------------------------------------
#
# The compiler dispatches on exact node type, so without this registration
# lowering a ParallelExt would be an error.  The compiled forms keep the scheduler semantics: a pinned (or moving) window,
# one frame copy per in-flight element so concurrent bodies never share
# mutable slots.

from ..nrc import compile as C  # noqa: E402  (needs ParallelExt defined above)


def _framed_body(body_fn, frame, context):
    def run_body(item):
        # One frame copy per in-flight element: concurrent bodies never
        # share mutable slots.
        item_frame = list(frame)
        item_frame.append(item)
        return body_fn(item_frame, context)

    return run_body


@C.register_compiler(ParallelExt)
def _compile_parallel_ext(expr: ParallelExt, scope, state):
    source_fn = C._compile(expr.source, scope, state)
    body_fn = C._compile(expr.body, scope + (expr.var,), state)

    def run(frame, context):
        return _run_parallel_loop(expr, source_fn(frame, context),
                                  _framed_body(body_fn, frame, context),
                                  context)

    return run


@C.register_chunk_compiler(ParallelExt)
def _chunk_parallel_ext(expr: ParallelExt, scope, state):
    """Streamed ParallelExt: the reply loop over the source's chunks.

    Downstream consumes earlier replies while the window's tasks are in
    flight (order preserved), so remote latency overlaps consumption
    end-to-end.  A task is one source element — one body evaluation, the
    shape that overlaps *remote* latency — and the replies are re-chunked
    for the downstream stages.

    The source is pulled lazily: one window ahead of the consumer, plus the
    rest of the source's current ramp chunk — the same
    no-lookahead-past-the-chunk rule every other chunk stage follows —
    which bounds unconsumed replies as the paper requires.
    """
    source_fn = C._compile_chunk(expr.source, scope, state)
    body_fn = C._compile(expr.body, scope + (expr.var,), state)
    # A ParallelExt typically exists BECAUSE its body scans a remote driver:
    # the re-chunk of its output must respect that driver's buffering bound
    # (one chunk never accumulates more than remote_max_chunk completed
    # remote replies), like every other re-chunk point.
    scan_driver_names = C._scan_drivers(expr)

    def chunks(frame, context):
        tasks = ([item] for chunk in source_fn(frame, context)
                 for item in chunk)
        maximum = C._subtree_max_chunk(C._active_policy(context),
                                       scan_driver_names)
        with closing(_replies(expr, tasks,
                              _framed_body(body_fn, frame, context),
                              context)) as replies:
            yield from C._ChunkRamp(maximum).emit_pulled(
                itertools.chain.from_iterable(replies))

    if expr.kind == "set":
        # Set semantics: suppress repeats incrementally (first-occurrence
        # order), matching the eagerly built CSet element-for-element.
        return C._dedup_set_chunks(chunks)
    return chunks


def make_parallel_rule_set(is_remote_driver: Callable[[str], bool],
                           max_workers: int = 5,
                           concurrency_of: Optional[
                               Callable[[str], Optional[int]]] = None,
                           workers_for: Optional[
                               Callable[[A.Expr], Optional[int]]] = None
                           ) -> RuleSet:
    """Build the rule set that parallelises remote inner loops.

    ``concurrency_of`` gives the number of requests a driver's server
    declared it handles at once (``None``: undeclared; without the callback
    no server declared anything).  A loop whose body calls an undeclared
    remote server gets a moving window (see :class:`ParallelExt`).

    ``workers_for`` makes the introduction *cost-gated* instead of purely
    pattern-gated: called with the candidate ``Ext``, it returns ``0`` to
    veto the rewrite (a source known to be too small to benefit from
    request overlap), a positive worker count to size the loop, or ``None``
    to keep ``max_workers`` — the planner's
    :meth:`~repro.core.planner.plan.QueryPlanner.parallel_workers` is the
    intended callback, and returns ``None`` whenever it has no statistics,
    so the uninformed behaviour is unchanged.
    """

    declared = concurrency_of or (lambda driver: None)

    def parallelise(expr: A.Expr) -> Optional[A.Expr]:
        if type(expr) is not A.Ext or expr.kind not in ("set", "bag", "list"):
            return None
        if not _body_calls_remote(expr.body, expr.var, is_remote_driver):
            return None
        workers = max_workers
        if workers_for is not None:
            chosen = workers_for(expr)
            if chosen is not None:
                if chosen < 1:
                    return None  # cost gate: overlap cannot pay here
                workers = chosen
        moving = any(declared(scan.driver) is None
                     for scan in _remote_scans(expr.body, is_remote_driver))
        return ParallelExt(expr.var, expr.body, expr.source, expr.kind,
                           workers, moving)

    rule = Rule("parallel-remote-loop", parallelise,
                "issue remote requests of an inner loop concurrently, bounded by the server cap",
                node_types=A.Ext)
    return _RemoteLoopRuleSet(is_remote_driver, [rule])


def make_bind_join_rule_set(is_remote_driver: Callable[[str], bool],
                            batches_natively: Callable[[str], bool],
                            max_workers: int = 5,
                            concurrency_of: Optional[
                                Callable[[str], Optional[int]]] = None
                            ) -> RuleSet:
    """Build the rule set that turns remote loops into bind joins.

    It runs just before :func:`make_parallel_rule_set` and applies to a
    ``Scan`` of a remote driver that ships a batch in one round trip
    (``batches_natively``), evaluated exactly once per iteration of a loop
    (not under a conditional, a ``case`` or a lambda; a nested loop's
    source counts), whose arguments read the loop variable and no name
    bound inside the loop:

    * **hoist** — ``U{ f(x, S(x)) | \\x <- T }`` becomes
      ``U{ f(p.item, p.result) | \\p <- BindScan(x, S(x), T) }``;
    * **unnest** — NRC associativity in reverse: ``U{ U{ f(x, y) | \\y <-
      E(x) } | \\x <- T }`` whose inner body holds such a scan becomes one
      loop over the ``[outer = x, inner = y]`` pairs, which the hoist then
      batches across every outer element.

    A :class:`~repro.core.nrc.ast.BindScan`'s window is its server's
    declared cap, or ``max_workers`` and moving when it declared none.
    """

    declared = concurrency_of or (lambda driver: None)

    def batches(driver: str) -> bool:
        return is_remote_driver(driver) and batches_natively(driver)

    def hoist(expr: A.Expr) -> Optional[A.Expr]:
        if type(expr) is not A.Ext:
            return None
        path = _bindable_scan(expr.body, {expr.var}, batches)
        if path is None:
            return None
        scan = _at(expr.body, path)
        pair = A.fresh_var("bind")
        body = _replaced(expr.body, path, A.Project(A.Var(pair), "result"))
        body = A.substitute(body, expr.var, A.Project(A.Var(pair), "item"))
        cap = declared(scan.driver)
        source = A.BindScan(expr.var, scan, expr.source,
                            proven_collection_kind(expr.source) or "list",
                            max_workers if cap is None else cap, cap is None)
        return A.Ext(pair, body, source, expr.kind)

    def unnest(expr: A.Expr) -> Optional[A.Expr]:
        inner = expr.body
        if (type(expr) is not A.Ext or type(inner) is not A.Ext
                or inner.kind != expr.kind or inner.var == expr.var
                or _bindable_scan(inner.body, {expr.var, inner.var},
                                  batches) is None):
            return None
        pair = A.fresh_var("pair")
        record = A.RecordExpr({"outer": A.Var(expr.var), "inner": A.Var(inner.var)})
        pairs = A.Ext(expr.var,
                      A.Ext(inner.var, A.Singleton(record, "list"), inner.source, "list"),
                      expr.source, "list")
        body = A.substitute(inner.body, inner.var, A.Project(A.Var(pair), "inner"))
        body = A.substitute(body, expr.var, A.Project(A.Var(pair), "outer"))
        return A.Ext(pair, body, pairs, expr.kind)

    rules = [Rule("bind-join-hoist", hoist,
                  "send a remote loop's requests in batches", node_types=A.Ext),
             Rule("bind-join-unnest", unnest,
                  "flatten a nest whose inner loop requests per element",
                  node_types=A.Ext)]
    return _RemoteLoopRuleSet(batches, rules, "bind-join")


#: Nodes that evaluate every child exactly once whenever they are evaluated.
_EVERY_CHILD_ONCE = (A.Apply, A.RecordExpr, A.Project, A.VariantExpr,
                     A.Singleton, A.Union, A.PrimCall, A.Deref, A.Fold)


def _bindable_scan(expr: A.Expr, loop_vars, batches: Callable[[str], bool],
                   bound: frozenset = frozenset()):
    """The child-index path to the first scan a bind join can take from
    ``expr``, or ``None``: a scan of a batching driver that ``expr``
    evaluates exactly once, whose arguments read one of ``loop_vars`` and no
    name in ``bound`` (bound inside the loop)."""
    node_type = type(expr)
    if node_type is A.Scan:
        if not batches(expr.driver):
            return None
        free = frozenset().union(*map(A.free_variables, expr.args.values()))
        return () if free & loop_vars and not free & bound else None
    if isinstance(expr, A.Ext):     # only the source runs once per evaluation
        path = _bindable_scan(expr.source, loop_vars, batches, bound)
        return None if path is None else (1,) + path
    if node_type is A.Let:
        scopes = (bound, bound | {expr.var})
    elif node_type in _EVERY_CHILD_ONCE:
        scopes = (bound,) * len(expr.children())
    else:                           # conditional, a lambda, a cache: no
        return None
    for index, (child, names) in enumerate(zip(expr.children(), scopes)):
        path = _bindable_scan(child, loop_vars, batches, names)
        if path is not None:
            return (index,) + path
    return None


def _at(expr: A.Expr, path) -> A.Expr:
    for index in path:
        expr = expr.children()[index]
    return expr


def _replaced(expr: A.Expr, path, replacement: A.Expr) -> A.Expr:
    """``expr`` with the one node at ``path`` replaced."""
    if not path:
        return replacement
    children = list(expr.children())
    children[path[0]] = _replaced(children[path[0]], path[1:], replacement)
    return expr.rebuild(children)


class _RemoteLoopRuleSet(RuleSet):
    """Top-down, and no pass at all over a term that scans nothing remote
    (most terms: every query over bound tables only).  Remoteness is asked
    per pass, not when the set is built — a latency may be registered, or
    observed, after that."""

    def __init__(self, is_remote_driver: Callable[[str], bool], rules,
                 name: str = "parallel"):
        super().__init__(name, rules, direction="top-down", max_iterations=2)
        self.is_remote_driver = is_remote_driver

    def _one_pass(self, expr, stats):
        if next(_remote_scans(expr, self.is_remote_driver), None) is None:
            return expr, False
        return super()._one_pass(expr, stats)


def _remote_scans(expr: A.Expr, is_remote_driver: Callable[[str], bool]) -> Iterator[A.Scan]:
    """Every Scan of a remote driver in ``expr``."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, A.Scan) and is_remote_driver(node.driver):
            yield node
        stack.extend(node.children())


def _body_calls_remote(body: A.Expr, var: str, is_remote_driver: Callable[[str], bool]) -> bool:
    """Does ``body`` contain a Scan of a remote driver whose request depends on ``var``?"""
    return any(var in A.free_variables(arg)
               for scan in _remote_scans(body, is_remote_driver)
               for arg in scan.args.values())
