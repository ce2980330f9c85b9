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
* "Say five" is a property of the *server*, not of one loop: nested parallel
  loops and concurrent sessions reach the same server, so the bound that
  protects it is the per-driver in-flight gate of
  :meth:`~repro.kleisli.engine.KleisliEngine.driver_executor`, as wide as the
  driver's declared ``max_concurrent_requests``.  ``max_workers`` only sizes
  one loop's fan-out: the narrowest cap the servers in its body declared,
  and five (``OptimizerConfig.parallel_max_workers``) for a server that
  declared nothing; requests past the server's cap queue at the gate
  instead of being rejected.
* :func:`make_parallel_rule_set` recognises loops whose body issues a request
  to a *remote* driver with arguments depending on the loop variable and
  rewrites them into :class:`ParallelExt`.
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
from ..nrc.structural import register_kind_prover
from ..values import iter_collection, make_collection

__all__ = ["ParallelExt", "make_parallel_rule_set"]


class ParallelExt(A.Ext):
    """An ``Ext`` evaluated with bounded parallelism over the source elements.

    A :class:`~repro.kleisli.scheduler.Scheduler` window of ``max_workers``
    body evaluations is in flight.  With ``adaptive`` set the window may
    move: it follows the server's observed capability (the paper's [43]
    extension) and ``max_workers`` is the upper bound of the probe.
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

    ``tasks`` yields lists of source elements (the eager lowerings hand
    one-element lists, the chunk lowering ``ChunkPolicy.parallel_chunk``
    elements); each task's result elements come back as one list, in task
    order, through a :class:`~repro.kleisli.scheduler.Scheduler` window.
    Scheduler construction, the plan hint, ``ext_iterations``, the
    cancellation checkpoint (one per reply: a body that never reaches a
    driver has no other) and the pool's release live here and nowhere else.
    Close the generator to release the pool — both callers do.
    """
    stats = context.statistics
    token = context.cancellation

    def run_task(items):
        out: List[object] = []
        for item in items:
            out.extend(iter_collection(materialise(run_body(item))))
        return len(items), out

    tasks = iter(tasks)
    head = list(itertools.islice(tasks, 2))
    scheduler = scope = None
    if len(head) < 2:
        # A loop over zero or one task has nothing to overlap: no scheduler,
        # no pool (a nested parallel loop runs one of these per outer row).
        outcomes = map(run_task, head)
    else:
        from ...kleisli.scheduler import Scheduler  # avoids a cycle

        scheduler = Scheduler(expr.max_workers, adaptive=expr.adaptive)
        plan = getattr(context, "physical_plan", None)
        if plan is not None and plan.prefetch_window is not None:
            # The planner's prefetch-window hint: start a moving window at
            # the plan's level (a known-slow server's bandwidth-delay
            # product) instead of probing up from one worker.
            scheduler.apply_plan_hint(plan.prefetch_window)
        scope = context.scope
        if scope is not None:
            # Backstop: if this generator is abandoned without close()
            # reaching its finally (e.g. dropped without GC running), the
            # pipeline's evaluation scope still joins the worker pool.
            scope.register(scheduler)
        outcomes = scheduler.prefetch(run_task, itertools.chain(head, tasks))
    try:
        for consumed, out in outcomes:
            if token is not None:
                token.raise_if_cancelled()
            stats.ext_iterations += consumed
            yield out
    finally:
        if scheduler is not None:
            # Always close on loop exit: a ParallelExt in the body of an
            # outer loop runs once per outer element — deferring the close
            # to stream end would accumulate one live pool per iteration.
            # Unregistering keeps the scope from pinning one dead scheduler
            # per iteration for the life of the stream.
            scheduler.close()
            if scope is not None:
                scope.unregister(scheduler)


def _run_parallel_loop(expr: ParallelExt, source, run_body, context):
    """Eager ParallelExt (the interpreter arm and the compiled closure
    differ only in ``run_body``): gather every reply into the result.

    The reply buffer is a materialization point like the eager ``Ext``'s:
    quantum-batched budget charges, the remainder at the end.
    """
    budget = context.memory_budget
    elements: List[object] = []
    charged = 0
    tasks = [[item] for item in iter_source(source)]
    with closing(_replies(expr, tasks, run_body, context)) as replies:
        for out in replies:
            elements.extend(out)
            if budget is not None and len(elements) - charged >= 256:
                budget.charge_elements(len(elements) - charged)
                charged = len(elements)
    if budget is not None and len(elements) > charged:
        budget.charge_elements(len(elements) - charged)
    context.statistics.note_intermediate(len(elements))
    return make_collection(expr.kind, elements)


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
# The compiler dispatches on exact node type, so without this registration a
# ParallelExt would fall back to the interpreter (correct but slower).  The
# compiled forms keep the scheduler semantics: a pinned (or moving) window,
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
    end-to-end.  A task covers ``ChunkPolicy.parallel_chunk`` source
    elements: 1 (the default) is one body evaluation per task, the right
    shape for overlapping *remote* latency, and the replies are re-chunked
    for the downstream stages; a larger value amortizes task and ordering
    overhead when the body is cheap (the window counted in chunks, a moving
    window sampling per-chunk latency) and each task's results travel on as
    one chunk.

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
        policy = C._active_policy(context)
        parallel_chunk = policy.parallel_chunk

        def tasks():
            # Re-cut whatever the source's own chunking produced into
            # fixed parallel_chunk task payloads.
            for chunk in source_fn(frame, context):
                for start in range(0, len(chunk), parallel_chunk):
                    yield chunk[start:start + parallel_chunk]

        with closing(_replies(expr, tasks(),
                              _framed_body(body_fn, frame, context),
                              context)) as replies:
            if parallel_chunk == 1:
                initial, maximum = C._subtree_sizes(policy, scan_driver_names)
                yield from C._ChunkRamp(
                    initial, maximum, policy.adaptive_ramp).emit_pulled(
                        itertools.chain.from_iterable(replies))
            else:
                yield from filter(None, replies)  # an empty reply is no chunk

    if expr.kind == "set":
        # Set semantics: suppress repeats incrementally (first-occurrence
        # order), matching the eagerly built CSet element-for-element.
        return C._dedup_set_chunks(chunks)
    return chunks


def make_parallel_rule_set(is_remote_driver: Callable[[str], bool],
                           max_workers: int = 5, adaptive: bool = False,
                           workers_for: Optional[
                               Callable[[A.Expr], Optional[int]]] = None
                           ) -> RuleSet:
    """Build the rule set that parallelises remote inner loops.

    ``adaptive`` selects the self-adjusting scheduler instead of the fixed
    worker count (see :class:`ParallelExt`).

    ``workers_for`` makes the introduction *cost-gated* instead of purely
    pattern-gated: called with the candidate ``Ext``, it returns ``0`` to
    veto the rewrite (a source known to be too small to benefit from
    request overlap), a positive worker count to size the loop, or ``None``
    to keep ``max_workers`` — the planner's
    :meth:`~repro.core.planner.plan.QueryPlanner.parallel_workers` is the
    intended callback, and returns ``None`` whenever it has no statistics,
    so the uninformed behaviour is unchanged.
    """

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
        return ParallelExt(expr.var, expr.body, expr.source, expr.kind, workers, adaptive)

    rule = Rule("parallel-remote-loop", parallelise,
                "issue remote requests of an inner loop concurrently, bounded by the server cap",
                node_types=A.Ext)
    return _RemoteLoopRuleSet(is_remote_driver, [rule])


class _RemoteLoopRuleSet(RuleSet):
    """Top-down, and no pass at all over a term that scans nothing remote
    (most terms: every query over bound tables only).  Remoteness is asked
    per pass, not when the set is built — a latency may be registered, or
    observed, after that."""

    def __init__(self, is_remote_driver: Callable[[str], bool], rules):
        super().__init__("parallel", rules, direction="top-down", max_iterations=2)
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
