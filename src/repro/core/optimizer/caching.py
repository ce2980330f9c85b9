"""Decorrelation of local subqueries: hoist what does not depend on the
loop, index what is probed by it.

"As the system is fully compositional, the inner relation in a join can
sometimes be a subquery.  To avoid recomputation, we have therefore introduced
an operator to cache the result of a subquery ... Rules to recognize when the
result of an inner subquery can be cached check that the subquery doesn't
depend on the outer relation."  And, of joins that must run locally: "the
indexed blocked-nested-loop join where indices are built on-the-fly".

Both promises are kept by one walk over the term that knows, at every node,
which binders are in scope (``Ext`` loop variables, ``Lam`` parameters,
``Let`` and ``Case`` variables) and whether the node can be evaluated more
than once (it sits in a loop body or a function body).  Inside such a
position, and nowhere else:

**Hoist** (``hoist-loop-invariant``).  Every *maximal* subterm that mentions
no binder in scope and contains a loop (``Ext``, ``Scan`` or ``Fold``) is
wrapped in :class:`~repro.core.nrc.ast.Cached` — wherever it
sits: a generator source, an argument of ``member`` or ``count``, a record
field.  The semi-join ``{l.sym | \\l <- LOCI, member(l.id, {r.locus | \\r <-
REFS, r.cls = 2})}`` computes its inner set once, not once per locus.

**Index** (``index-correlated-loop``).  A loop of any kind

    U{ if f1 then .. if eq(ky, kx) then rest else {} .. else {} | \\y <- S }

where ``S`` mentions no binder in scope, ``ky`` and every filter ``f`` in
front of the equality mention no binder but ``y``, and ``kx`` does not mention
``y``, iterates only the rows whose key matches:

    U{ rest | \\y <- let i = Cached(index(U[| if f1 then .. [|[key = ky, row = y]|] .. | \\y <- S |]))
                   in if isempty(i) then {} else probe(i, kx) }

The ``index`` primitive groups the rows under their keys with every group in
source order, and ``probe`` hands back one group, so element order and bag
multiplicities are those of the loop over ``S``.  The filters in front of the
equality run while the index is built; what follows the equality (``rest``:
more filters, the head) runs per matching row as before.  The index is an
ordinary ``Cached`` subquery, keyed by its content: two loops over the same
``S`` with the same filters and key (the ``count`` and the ``max`` of one
correlated aggregate) build and share one index.  The loop's source is
:func:`~repro.core.nrc.ast.guarded_probe`, which a compiled loop evaluates as
one closure per outer row.  No AST node is involved:
in the interpreter the build is an ordinary list ``Ext`` under the ``index``
primitive, and the compiled lowering of ``index`` runs the same loop — same
iteration count, cancellation checkpoint and budget charge — straight into
the index without a ``[key, row]`` record per row, on disk when the run has a
spill manager (:func:`~repro.core.nrc.compile._compile_index`).

**Memoize** (``memoize-correlated-aggregate``).  An aggregate — ``count``,
``sum``, ``avg``, ``max`` or ``min`` — in such a position that contains a
loop outside any ``Cached`` and reads the binders in scope only as
projections ``x.l`` is wrapped in :class:`~repro.core.nrc.ast.Memo`, keyed
by those projections.  The correlated aggregate ``{[k = o.k, n =
count({x.v | \\x <- OBS, x.k = o.k})] | \\o <- OBS}`` then probes its
index once per distinct ``o.k``, not once per row.  Its value depends on
nothing but the values it reads: a top-level name has one value per run, a
``Cached`` subterm keeps its first value for the run wherever it sits, and a
binder is read only through the projections.  So rows whose projections
hold *indistinguishable* values share one value:

* Key exactness.  An entry is keyed by each value beside its exact class, and
  only when every value is an exact ``int``, ``str``, ``bool`` or ``bytes``;
  otherwise the aggregate runs as written.  ``True`` and ``1`` are one value
  to ``==`` and two keys here.  A float is left out: NaN is not
  equal to itself, and ``-0.0 == 0.0`` while the two print and divide
  apart; a unit or a structured value holds such things or an identity.  A
  stored value obeys the same rule, with floats that are not NaN allowed: a
  NaN or a structured value is built anew per row, as the loop built it, so
  a set of heads sees as many elements as it did.
* Error parity.  The aggregate is evaluated where and when the loop
  evaluated it, for every row whose key has no stored value; an evaluation
  that raises stores nothing, so the rewritten term raises exactly when the
  original did, with the same error.  A key projection that raises (a row
  without that field) leaves the aggregate to run as written, which raises
  only if it reaches the projection.

The walk applies it once: a ``Memo``'s aggregate is walked as a position
evaluated once per key, so a later pass does not wrap it again.

Local joins.  The first two rewrites are the paper's two join operators.  The
indexed join of ``\\x <- R, \\y <- S, ky = kx`` is the probe above; the
blocked join of ``\\x <- R, \\y <- SUBQUERY, x.a < y.b`` is the hoist: the
inner side is computed once, on first need (never for an empty outer), and a
compiled ``Cached`` in generator-source position is the governed build side
(charged to the memory budget, spilled under a spill manager).  The walk
takes the first equality it meets for the key; putting the right one first
is the join stage's one rule (:mod:`repro.core.optimizer.joins`).

Independence.  "Mentions no binder in scope" is dependence on *any* enclosing
binder, not just the nearest loop's — a term that mentions a ``Let`` variable
whose value depends on a loop would otherwise freeze its first value.  Free
top-level names (bound tables) are not binders: they have one value per run,
which is the lifetime of a content-keyed cache entry.

Error parity.  ``Cached`` is lazy, so a hoisted subquery or an index is
evaluated when the original plan would first have reached it and never if
it would not have (an empty outer loop, a guarding filter that is false); a
subquery that raises is not stored and raises again.  The index evaluates
``ky`` for exactly the rows the loop would have evaluated it for — the ones
the filters in front of the equality let through, which is why a filter that
mentions an enclosing binder in that position blocks the rewrite instead of
being moved behind the probe.  ``kx`` is evaluated once per probe where the
loop evaluated it once per row: the ``isempty`` guard keeps it unevaluated
when no row reaches the equality.  When several expressions of one loop
would raise, which of them is reported first may differ.  Neither rewrite
moves a filter across the equality; the join stage's reorder does, and
documents what that can change.

The pass is linear in the size of the term: one sweep marks the subterms
that contain a loop (the walk enters no other), and the free-variable sets of
all subterms are computed bottom-up in one more
(:func:`~repro.core.nrc.ast.free_variables` with a memo), the first time a
loop is met inside a loop — for most queries, never.  Because the independence
check needs every binder in scope, the rule set overrides the generic
node-at-a-time pass with this one scope-tracking walk; the three rules sit
behind the ``caching`` switch of
:class:`~repro.core.optimizer.pipeline.OptimizerConfig`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..nrc import ast as A
from ..nrc.rewrite import RewriteStats, Rule, RuleSet

__all__ = ["make_caching_rule_set"]

_HOIST = "hoist-loop-invariant"
_INDEX = "index-correlated-loop"
_MEMO = "memoize-correlated-aggregate"

_LOOPS = (A.Ext, A.Scan, A.Fold)
_AGGREGATES = frozenset(("count", "sum", "avg", "max", "min"))
_NOTHING: frozenset = frozenset()

#: ``(binders in scope, can be evaluated more than once)`` of a position.
_Position = Tuple[frozenset, bool]


def _mark_loops(expr: A.Expr, found: Set[int]) -> bool:
    """Collect the ``id`` of every subterm of ``expr`` that contains a loop."""
    has_loop = isinstance(expr, _LOOPS)
    for child in expr.children():
        if _mark_loops(child, found):
            has_loop = True
    if has_loop:
        found.add(id(expr))
    return has_loop


def _child_positions(node: A.Expr, scope: frozenset, in_loop: bool) -> Sequence[_Position]:
    """The position of each child of ``node``, in ``children()`` order."""
    if isinstance(node, A.Ext):
        return ((scope | {node.var}, True), (scope, in_loop))
    if isinstance(node, A.Lam):
        # A function body may be invoked many times (mapped over a
        # collection, folded), so it counts as a loop body.
        return ((scope | {node.param}, True),)
    if isinstance(node, A.Let):
        return ((scope, in_loop), (scope | {node.var}, in_loop))
    if isinstance(node, A.Case):
        positions = [(scope, in_loop)]
        positions.extend((scope | {branch.var}, in_loop) for branch in node.branches)
        if node.default is not None:
            positions.append((scope | {node.default[0]}, in_loop))
        return positions
    if isinstance(node, A.Cached):
        return ((scope, False),)    # evaluated once per run, wherever it sits
    if isinstance(node, A.Memo):
        # Evaluated once per key, so its aggregate is not memoized again.
        return ((scope, False),) + ((scope, in_loop),) * len(node.keys)
    return ((scope, in_loop),) * len(node.children())


def _read_by_projection(node: A.Expr, outer: frozenset, keys: Dict[tuple, A.Expr],
                        loops: List[A.Expr]) -> bool:
    """Whether ``node`` reads the binders ``outer`` only as projections
    ``x.l``, filed in ``keys``; each loop met is filed in ``loops``.  A
    ``Cached`` subterm is not entered: its value is the first row's for the
    whole run, with a memo or without."""
    node_type = type(node)
    if node_type is A.Cached:
        return True
    if node_type is A.Project and type(node.expr) is A.Var and node.expr.name in outer:
        keys.setdefault((node.expr.name, node.label), node)
        return True
    if node_type is A.Var:
        return node.name not in outer
    if isinstance(node, _LOOPS):
        loops.append(node)
    return all(_read_by_projection(child, outer - bound, keys, loops)
               for child, (bound, _) in zip(node.children(),
                                            _child_positions(node, _NOTHING, False)))


class _CachingPass:
    """One scope-tracking pass of :class:`_ScopedCachingRuleSet` over ``root``.

    A class, not nested functions: functions that call one another reach
    each other through closure cells, and every pass would leave that cycle,
    holding its terms and statistics, to the garbage collector.
    """

    __slots__ = ("root", "stats", "loops", "free", "fired")

    def __init__(self, root: A.Expr, stats: RewriteStats):
        self.root = root
        self.stats = stats
        self.loops: Set[int] = set()
        _mark_loops(root, self.loops)
        self.free: Dict[int, frozenset] = {}
        self.fired = False

    def note(self, rule: str) -> None:
        self.fired = True
        self.stats.note(rule)

    def free_in(self, node: A.Expr) -> frozenset:
        if not self.free:   # first asked for: most queries never nest a loop
            A.free_variables(self.root, self.free)
        return self.free[id(node)]

    def walk(self, node: A.Expr, scope: frozenset, in_loop: bool) -> A.Expr:
        if id(node) not in self.loops:
            return node     # no loop in here: nothing to hoist, nothing to index
        if in_loop:
            if (not self.free_in(node) & scope
                    and not isinstance(node, (A.Cached, A.Lam))):
                self.note(_HOIST)
                return A.Cached(self.walk(node, scope, False))
            if type(node) is A.Ext:
                probed = self.index_loop(node, scope)
                if probed is not None:
                    self.note(_INDEX)
                    return probed
        children = node.children()
        positions = _child_positions(node, scope, in_loop)
        new_children = [self.walk(child, *position)
                        for child, position in zip(children, positions)]
        if not all(new is old for new, old in zip(new_children, children)):
            node = node.rebuild(new_children)
        if in_loop and type(node) is A.PrimCall and node.name in _AGGREGATES:
            keys: Dict[tuple, A.Expr] = {}
            loops: List[A.Expr] = []
            if _read_by_projection(node, scope, keys, loops) and loops:
                self.note(_MEMO)
                return A.Memo(node, list(keys.values()))
        return node

    def index_loop(self, loop: A.Ext, scope: frozenset) -> Optional[A.Expr]:
        var = loop.var
        if self.free_in(loop.source) & scope:
            return None
        outer = scope - {var}   # what a subterm of the body can see beyond ``var``
        filters: List[A.Expr] = []
        current = loop.body
        while isinstance(current, A.IfThenElse) and isinstance(current.else_branch, A.Empty):
            condition = current.cond
            keys = self.key_pair(condition, var, outer)
            if keys is not None:
                break
            if self.free_in(condition) & outer:
                return None     # must run where it is: before the equality
            filters.append(condition)
            current = current.then_branch
        else:
            return None
        inner_key, probe_key = keys
        inside = scope | {var}
        walk = self.walk
        rows = A.keyed_rows(var, [walk(condition, inside, True) for condition in filters],
                           walk(inner_key, inside, True), walk(loop.source, scope, False))
        source = A.guarded_probe(A.Cached(A.PrimCall("index", [rows])),
                                 walk(probe_key, scope, True), loop.kind)
        return A.Ext(var, walk(current.then_branch, inside, True), source, loop.kind)

    def key_pair(self, condition: A.Expr, var: str, outer: frozenset):
        """``(key over var alone, key without var)`` of an equality, if it has them."""
        if not (isinstance(condition, A.PrimCall) and condition.name == "eq"
                and len(condition.args) == 2):
            return None
        for mine, other in (condition.args, reversed(condition.args)):
            mine_free = self.free_in(mine)
            if var in mine_free and not mine_free & outer and var not in self.free_in(other):
                return mine, other
        return None


class _ScopedCachingRuleSet(RuleSet):
    """A rule set whose single pass tracks the binders in scope.

    The generic traversal applies rules node by node without knowing which
    variables are bound around the node, which is exactly the information
    the independence check needs; overriding ``_one_pass`` keeps the engine
    interface (and the stats/explain machinery) while making the walk sound.
    """

    def _one_pass(self, expr: A.Expr, stats: RewriteStats) -> Tuple[A.Expr, bool]:
        run = _CachingPass(expr, stats)
        return run.walk(expr, frozenset(), False), run.fired


def make_caching_rule_set() -> RuleSet:
    """Build the subquery caching rule set (scope-aware; see module docstring)."""
    # The Rule objects document the rewrites for explain output; the
    # subclass's scope-tracking pass is what actually applies them.
    rules = [
        Rule(_HOIST, lambda expr: None,
             "cache a loop-body subquery that mentions no enclosing binder"),
        Rule(_INDEX, lambda expr: None,
             "probe an index built once instead of scanning a loop-invariant inner relation"),
        Rule(_MEMO, lambda expr: None,
             "compute a correlated aggregate once per value of the projections it reads"),
    ]
    return _ScopedCachingRuleSet("caching", rules, direction="top-down", max_iterations=3)
