"""Abstract syntax of NRC, the monad algebra CPL is compiled into.

The central construct is :class:`Ext` — the paper writes it
``U{ e1 | \\x <- e2 }`` — whose meaning is the union of ``e1[o/x]`` for every
element ``o`` of the collection ``e2``.  Everything a comprehension can say is
said with ``Ext``, ``Singleton``, ``Empty``, ``Union`` and ``IfThenElse``
(Wadler's translation), and the optimizer's rewrite rules are stated on these
nodes.

A few nodes go beyond the textbook calculus because the paper's system needs
them:

* :class:`Scan` — a request to an external driver (a Sybase SQL query, an
  Entrez index lookup, an ACE class scan ...).  Pushdown optimizations work by
  rewriting comprehensions *around* a ``Scan`` into a richer request *inside*
  it.
* :class:`Cached` — marks a subexpression whose value should be computed once
  and reused (the inner-subquery cache), and :class:`Memo` — one computed
  once per key (a correlated aggregate).
* :class:`Deref` — dereferencing for sources with object identity.

All nodes are immutable; structural equality and hashing are provided so the
rewrite engine can detect fixpoints.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import NRCError
from ..records import Record

__all__ = [
    "Expr", "Const", "Var", "Lam", "Apply", "RecordExpr", "Project",
    "VariantExpr", "Case", "CaseBranch", "Empty", "Singleton", "Union", "Ext",
    "Fold", "IfThenElse", "PrimCall", "Let", "Deref", "Scan", "Cached",
    "BindScan",
    "fresh_var", "free_variables", "substitute", "node_count",
    "filter_chain", "filtered", "keyed_rows", "keyed_rows_parts",
    "guarded_probe", "guarded_probe_parts",
]

_var_counter = itertools.count(1)

COLLECTION_KINDS = ("set", "bag", "list")


def fresh_var(prefix: str = "v") -> str:
    """Return a fresh variable name, globally unique within the process."""
    return f"%{prefix}{next(_var_counter)}"


class Expr:
    """Base class of all NRC expressions."""

    __slots__ = ()

    def children(self) -> Tuple["Expr", ...]:
        """Return immediate sub-expressions (in a stable order)."""
        raise NotImplementedError

    def rebuild(self, children: Sequence["Expr"]) -> "Expr":
        """Return a copy of this node with ``children`` substituted for the old ones."""
        raise NotImplementedError

    # -- structural equality -------------------------------------------------

    def _key(self) -> Tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def __repr__(self) -> str:
        return self.pretty()

    def pretty(self) -> str:
        """Render a readable (roughly CPL-flavoured) form of the expression."""
        from .printer import pretty_expr

        return pretty_expr(self)


class Const(Expr):
    """A literal constant (bool, int, float, string, unit, or a prebuilt value)."""

    __slots__ = ("value",)

    def __init__(self, value: object):
        self.value = value

    def children(self) -> Tuple[Expr, ...]:
        return ()

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        return self

    def _key(self) -> Tuple:
        try:
            hash(self.value)
            return (self.value,)
        except TypeError:
            return (id(self.value),)


class Var(Expr):
    """A variable reference."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def children(self) -> Tuple[Expr, ...]:
        return ()

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        return self

    def _key(self) -> Tuple:
        return (self.name,)


class Lam(Expr):
    """A single-argument function ``\\param => body``."""

    __slots__ = ("param", "body")

    def __init__(self, param: str, body: Expr):
        self.param = param
        self.body = body

    def children(self) -> Tuple[Expr, ...]:
        return (self.body,)

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        return Lam(self.param, children[0])

    def _key(self) -> Tuple:
        return (self.param, self.body)


class Apply(Expr):
    """Function application ``func(arg)``."""

    __slots__ = ("func", "arg")

    def __init__(self, func: Expr, arg: Expr):
        self.func = func
        self.arg = arg

    def children(self) -> Tuple[Expr, ...]:
        return (self.func, self.arg)

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        return Apply(children[0], children[1])

    def _key(self) -> Tuple:
        return (self.func, self.arg)


class RecordExpr(Expr):
    """Record construction ``[l1 = e1, ..., ln = en]``."""

    __slots__ = ("fields",)

    def __init__(self, fields: Mapping[str, Expr]):
        self.fields: Dict[str, Expr] = dict(fields)

    def children(self) -> Tuple[Expr, ...]:
        return tuple(self.fields.values())

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        return RecordExpr(dict(zip(self.fields.keys(), children)))

    def _key(self) -> Tuple:
        return tuple(sorted(self.fields.items()))


class Project(Expr):
    """Record projection ``expr.label``."""

    __slots__ = ("expr", "label")

    def __init__(self, expr: Expr, label: str):
        self.expr = expr
        self.label = label

    def children(self) -> Tuple[Expr, ...]:
        return (self.expr,)

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        return Project(children[0], self.label)

    def _key(self) -> Tuple:
        return (self.expr, self.label)


class VariantExpr(Expr):
    """Variant injection ``<tag = expr>``."""

    __slots__ = ("tag", "expr")

    def __init__(self, tag: str, expr: Expr):
        self.tag = tag
        self.expr = expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.expr,)

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        return VariantExpr(self.tag, children[0])

    def _key(self) -> Tuple:
        return (self.tag, self.expr)


class CaseBranch:
    """One branch of a :class:`Case`: bind ``var`` to the payload of ``tag`` and run ``body``."""

    __slots__ = ("tag", "var", "body")

    def __init__(self, tag: str, var: str, body: Expr):
        self.tag = tag
        self.var = var
        self.body = body

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CaseBranch)
            and (self.tag, self.var, self.body) == (other.tag, other.var, other.body)
        )

    def __hash__(self) -> int:
        return hash((self.tag, self.var, self.body))

    def __repr__(self) -> str:
        return f"<{self.tag}=\\{self.var}> => {self.body!r}"


class Case(Expr):
    """Case analysis on a variant value.

    ``default`` (if present) is a ``(var, body)`` pair applied to the whole
    variant when no branch matches; without it an unmatched tag is an
    evaluation error.
    """

    __slots__ = ("subject", "branches", "default")

    def __init__(self, subject: Expr, branches: Sequence[CaseBranch],
                 default: Optional[Tuple[str, Expr]] = None):
        self.subject = subject
        self.branches: Tuple[CaseBranch, ...] = tuple(branches)
        self.default = default

    def children(self) -> Tuple[Expr, ...]:
        result: List[Expr] = [self.subject]
        result.extend(branch.body for branch in self.branches)
        if self.default is not None:
            result.append(self.default[1])
        return tuple(result)

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        subject = children[0]
        bodies = children[1:1 + len(self.branches)]
        branches = [
            CaseBranch(branch.tag, branch.var, body)
            for branch, body in zip(self.branches, bodies)
        ]
        default = self.default
        if default is not None:
            default = (default[0], children[-1])
        return Case(subject, branches, default)

    def _key(self) -> Tuple:
        return (self.subject, self.branches, self.default)


class Empty(Expr):
    """The empty collection ``{}``, ``{||}`` or ``[||]`` of the given kind."""

    __slots__ = ("kind",)

    def __init__(self, kind: str = "set"):
        if kind not in COLLECTION_KINDS:
            raise NRCError(f"unknown collection kind {kind!r}")
        self.kind = kind

    def children(self) -> Tuple[Expr, ...]:
        return ()

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        return self

    def _key(self) -> Tuple:
        return (self.kind,)


class Singleton(Expr):
    """The singleton collection ``{e}`` of the given kind."""

    __slots__ = ("kind", "expr")

    def __init__(self, expr: Expr, kind: str = "set"):
        if kind not in COLLECTION_KINDS:
            raise NRCError(f"unknown collection kind {kind!r}")
        self.kind = kind
        self.expr = expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.expr,)

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        return Singleton(children[0], self.kind)

    def _key(self) -> Tuple:
        return (self.kind, self.expr)


class Union(Expr):
    """Union (set/bag) or concatenation (list) of two collections of the same kind."""

    __slots__ = ("kind", "left", "right")

    def __init__(self, left: Expr, right: Expr, kind: str = "set"):
        if kind not in COLLECTION_KINDS:
            raise NRCError(f"unknown collection kind {kind!r}")
        self.kind = kind
        self.left = left
        self.right = right

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        return Union(children[0], children[1], self.kind)

    def _key(self) -> Tuple:
        return (self.kind, self.left, self.right)


class Ext(Expr):
    """The ``U{ body | \\var <- source }`` construct (flat-map / monad extension).

    Its value is the union (of the node's ``kind``) of ``body[o/var]`` for each
    element ``o`` of ``source``.  ``body`` must itself evaluate to a collection
    of kind ``kind``.
    """

    __slots__ = ("kind", "var", "body", "source")

    def __init__(self, var: str, body: Expr, source: Expr, kind: str = "set"):
        if kind not in COLLECTION_KINDS:
            raise NRCError(f"unknown collection kind {kind!r}")
        self.kind = kind
        self.var = var
        self.body = body
        self.source = source

    def children(self) -> Tuple[Expr, ...]:
        return (self.body, self.source)

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        return Ext(self.var, children[0], children[1], self.kind)

    def _key(self) -> Tuple:
        return (self.kind, self.var, self.body, self.source)


class Fold(Expr):
    """Structural recursion over a collection: ``fold(func, init, source)``.

    ``func`` must evaluate to a curried two-argument function; the node's value
    is ``f(... f(f(init, o1), o2) ..., on)`` for the elements ``o1 .. on`` of
    ``source``.  This is the "more powerful programming paradigm on collection
    types" of Section 2 — comprehensions alone cannot express aggregates or
    transitive closure, structural recursion can.

    For set and bag sources the result is only well defined when ``func`` is
    insensitive to the order in which elements arrive (and, for sets, to
    duplicates); :mod:`repro.core.nrc.structural` provides spot-check helpers
    for those conditions.  Aggregates such as ``sum`` and ``count`` are the
    canonical well-defined instances.
    """

    __slots__ = ("func", "init", "source")

    def __init__(self, func: Expr, init: Expr, source: Expr):
        self.func = func
        self.init = init
        self.source = source

    def children(self) -> Tuple[Expr, ...]:
        return (self.func, self.init, self.source)

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        return Fold(children[0], children[1], children[2])

    def _key(self) -> Tuple:
        return (self.func, self.init, self.source)


class IfThenElse(Expr):
    """Conditional ``if cond then then_branch else else_branch``."""

    __slots__ = ("cond", "then_branch", "else_branch")

    def __init__(self, cond: Expr, then_branch: Expr, else_branch: Expr):
        self.cond = cond
        self.then_branch = then_branch
        self.else_branch = else_branch

    def children(self) -> Tuple[Expr, ...]:
        return (self.cond, self.then_branch, self.else_branch)

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        return IfThenElse(children[0], children[1], children[2])

    def _key(self) -> Tuple:
        return (self.cond, self.then_branch, self.else_branch)


class PrimCall(Expr):
    """A call to a built-in primitive (``eq``, ``and``, ``+``, ``count`` ...)."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expr]):
        self.name = name
        self.args: Tuple[Expr, ...] = tuple(args)

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        return PrimCall(self.name, tuple(children))

    def _key(self) -> Tuple:
        return (self.name, self.args)


class Let(Expr):
    """``let var = value in body`` — used to share subexpression results."""

    __slots__ = ("var", "value", "body")

    def __init__(self, var: str, value: Expr, body: Expr):
        self.var = var
        self.value = value
        self.body = body

    def children(self) -> Tuple[Expr, ...]:
        return (self.value, self.body)

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        return Let(self.var, children[0], children[1])

    def _key(self) -> Tuple:
        return (self.var, self.value, self.body)


class Deref(Expr):
    """Dereference an object identity (reference type)."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr):
        self.expr = expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.expr,)

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        return Deref(children[0])

    def _key(self) -> Tuple:
        return (self.expr,)


class Scan(Expr):
    """A request to an external driver.

    ``driver`` names a driver registered with the Kleisli engine; ``request``
    is a plain dictionary in that driver's request vocabulary (e.g. ``{"table":
    "locus"}`` or ``{"query": "select ..."}`` for the relational driver,
    ``{"db": "na", "select": ..., "path": ...}`` for the Entrez driver).
    Argument expressions that must be evaluated before the request is issued
    (e.g. an accession number computed by the outer query) live in ``args`` and
    are spliced into the request under their key at evaluation time.

    Pushdown optimizations rewrite the *request* — turning a comprehension over
    ``Scan({"table": "locus"})`` into ``Scan({"query": "select ... where ..."})``
    — so less data crosses the driver boundary.
    """

    __slots__ = ("driver", "request", "args", "kind")

    def __init__(self, driver: str, request: Mapping[str, object],
                 args: Optional[Mapping[str, Expr]] = None, kind: str = "set"):
        self.driver = driver
        self.request: Dict[str, object] = dict(request)
        self.args: Dict[str, Expr] = dict(args or {})
        self.kind = kind

    def children(self) -> Tuple[Expr, ...]:
        return tuple(self.args.values())

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        return Scan(self.driver, self.request, dict(zip(self.args.keys(), children)), self.kind)

    def with_request(self, request: Mapping[str, object]) -> "Scan":
        return Scan(self.driver, request, self.args, self.kind)

    def _key(self) -> Tuple:
        return (
            self.driver,
            tuple(sorted((k, _freeze(v)) for k, v in self.request.items())),
            tuple(sorted(self.args.items())),
            self.kind,
        )


def _freeze(value: object) -> object:
    """Make request payload values hashable for structural comparison."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)) and not isinstance(value, Record):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return frozenset(_freeze(v) for v in value)
    return value


class Cached(Expr):
    """Evaluate ``expr`` once and reuse the value on subsequent evaluations.

    Introduced by the caching rule set around inner subqueries that do not
    depend on the outer loop variable.  ``key`` identifies the cache entry.
    Left out, it is derived from the subquery's content: the ``repr`` of its
    :func:`~repro.core.nrc.compile.term_fingerprint` (one flat tuple of
    tokens) under :data:`CONTENT_PREFIX`, with no digest, so two subqueries
    share a key exactly when their fingerprints print alike (nothing
    truncated collides them), and optimising one query twice gives one term
    and one compiled form.  The fingerprint of a ``Cached`` node leaves such
    a key out (it only repeats the subtree), so the keys of nested
    subqueries grow linearly with their text.

    The paper keeps the cached result "on disk".  Here an entry, under
    either kind of key, belongs to the run that computed it (its value
    depends on that run's bindings and sources): it lives in the run's
    ``EvalContext.cache`` dict and goes with the run.  Equal keys in one run
    share the entry.  Under a memory budget a large build side goes to disk
    through the run's governed spill (``SpillManager.spilled_list``).
    """

    __slots__ = ("expr", "key")

    #: What every content-derived key starts with.
    CONTENT_PREFIX = "%cache:"

    def __init__(self, expr: Expr, key: Optional[str] = None):
        self.expr = expr
        if key is None:
            from .compile import term_fingerprint  # compile imports this module
            key = self.CONTENT_PREFIX + repr(term_fingerprint(expr))
        self.key = key

    def children(self) -> Tuple[Expr, ...]:
        return (self.expr,)

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        return Cached(children[0], self.key)

    def _key(self) -> Tuple:
        return (self.expr,)


class Memo(Expr):
    """Evaluate ``expr`` once per distinct value of ``keys`` in a run.

    Introduced by the caching rule set around a correlated aggregate whose
    loop binders appear only as the projections ``keys`` (``x.l``), so the
    values of ``keys`` determine its value.  An entry of the run's
    ``EvalContext.cache`` is keyed by ``key`` (the ``repr`` of the node's own
    fingerprint, aggregate and key projections, under
    :data:`Cached.CONTENT_PREFIX`: one aggregate text keyed by other
    projections elsewhere in a query is another memo) and by each key value
    with its exact type (``eval._memo_entry``): only when every value is an
    exact ``int``, ``str``, ``bool`` or ``bytes`` is the memo consulted, and
    only such a value or a float that is not NaN is stored
    (``eval._memoized``).  Otherwise, or when a key raises, ``expr`` runs as
    written.  The fingerprint leaves ``key`` out, as a ``Cached`` node's does.
    """

    __slots__ = ("expr", "keys", "key")

    def __init__(self, expr: Expr, keys: Sequence[Expr], key: Optional[str] = None):
        self.expr = expr
        self.keys = tuple(keys)
        if key is None:
            from .compile import term_fingerprint  # compile imports this module
            key = Cached.CONTENT_PREFIX + repr(term_fingerprint(self))  # reads no key
        self.key = key

    def children(self) -> Tuple[Expr, ...]:
        return (self.expr,) + self.keys

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        return Memo(children[0], children[1:], self.key)

    def _key(self) -> Tuple:
        return (self.expr, self.keys)


class BindScan(Ext):
    """A bind join: ``U[| [|[item = x, result = scan]|] | \\x <- source |]``.

    ``body`` is a :class:`Scan` whose arguments read the loop variable; the
    value is one ``[item = x, result = scan(x)]`` record per source element,
    in source order and multiplicity, as a collection of ``kind`` (the
    optimizer gives the source's proven kind, else ``list``).  The compiled
    lowerings send the requests in batches of the run's ``remote_max_chunk``
    (one ``Driver.execute_batch`` round trip each), ``max_workers`` batches
    in flight: pinned there, or, with ``adaptive`` set (the server declared
    no cap), narrowing on a rejection as a parallel loop's window does.
    """

    __slots__ = ("max_workers", "adaptive")

    def __init__(self, var: str, scan: "Scan", source: Expr, kind: str = "list",
                 max_workers: int = 5, adaptive: bool = False):
        super().__init__(var, scan, source, kind)
        self.max_workers = max_workers
        self.adaptive = adaptive

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        return BindScan(self.var, children[0], children[1], self.kind,
                        self.max_workers, self.adaptive)

    def _key(self) -> Tuple:
        return super()._key() + (self.max_workers, self.adaptive)

    def fingerprint_extras(self) -> Tuple:
        """The window the compiled loop bakes in (see ``term_fingerprint``)."""
        return (self.max_workers, self.adaptive)


# ---------------------------------------------------------------------------
# Filter chains, and the keyed rows an on-the-fly index is built from
# ---------------------------------------------------------------------------

def filter_chain(body: Expr) -> Tuple[List[Expr], Expr]:
    """``if c1 then .. if cn then rest else {} .. else {}`` as ``([c1 .. cn], rest)``."""
    conditions: List[Expr] = []
    while isinstance(body, IfThenElse) and isinstance(body.else_branch, Empty):
        conditions.append(body.cond)
        body = body.then_branch
    return conditions, body


def filtered(conditions: Sequence[Expr], rest: Expr, kind: str) -> Expr:
    """``rest`` behind the filter chain ``conditions`` (:func:`filter_chain`'s inverse)."""
    for condition in reversed(conditions):
        rest = IfThenElse(condition, rest, Empty(kind))
    return rest


def keyed_rows(var: str, filters: Sequence[Expr], key: Expr, source: Expr) -> Expr:
    """``U[| if f.. then [|[key = key, row = var]|] else [||] | \\var <- source |]``:
    the argument the decorrelation stage gives the ``index`` primitive."""
    pair = Singleton(RecordExpr({"key": key, "row": Var(var)}), "list")
    return Ext(var, filtered(filters, pair, "list"), source, "list")


def keyed_rows_parts(rows: Expr) -> Optional[Tuple[str, Expr, List[Expr], Expr]]:
    """``(var, source, filters, key)`` of a :func:`keyed_rows` term, else ``None``
    (the compiled ``index`` builds straight from the parts; the printer renders them)."""
    if type(rows) is not Ext or rows.kind != "list":
        return None
    filters, body = filter_chain(rows.body)
    if not (type(body) is Singleton and type(body.expr) is RecordExpr
            and list(body.expr.fields) == ["key", "row"]
            and body.expr.fields["row"] == Var(rows.var)):
        return None
    return rows.var, rows.source, filters, body.expr.fields["key"]


def guarded_probe(index: Expr, key: Expr, kind: str) -> Expr:
    """``let i = index in if isempty(i) then {} else probe(i, key)``: the source
    the decorrelation stage gives a probed loop (``key`` unevaluated when no row
    was indexed, as in the loop it replaces)."""
    var = fresh_var("index")
    return Let(var, index, IfThenElse(PrimCall("isempty", [Var(var)]), Empty(kind),
                                      PrimCall("probe", [Var(var), key])))


def guarded_probe_parts(expr: Expr) -> Optional[Tuple[Expr, Expr, Expr]]:
    """``(index, key, empty)`` of a :func:`guarded_probe` term, else ``None``
    (the compiled loop probes straight from the parts; the printer renders them)."""
    if type(expr) is not Let or type(expr.body) is not IfThenElse:
        return None
    guard, empty, probe = expr.body.cond, expr.body.then_branch, expr.body.else_branch
    index = Var(expr.var)
    if not (type(empty) is Empty and guard == PrimCall("isempty", [index])
            and type(probe) is PrimCall and probe.name == "probe"
            and len(probe.args) == 2 and probe.args[0] == index
            and expr.var not in free_variables(probe.args[1])):
        return None
    return expr.value, probe.args[1], empty


# ---------------------------------------------------------------------------
# Free variables and capture-avoiding substitution
# ---------------------------------------------------------------------------

def free_variables(expr: Expr, memo: Optional[Dict[int, frozenset]] = None) -> frozenset:
    """Return the free variable names of ``expr``.

    With ``memo``, the set of every subterm is also filed there under
    ``id(subterm)``: one bottom-up walk answers every later "what does this
    subterm mention" (the caching stage asks it of each loop-body subterm).
    """
    if isinstance(expr, Var):
        free = frozenset((expr.name,))
    elif isinstance(expr, Lam):
        free = free_variables(expr.body, memo) - {expr.param}
    elif isinstance(expr, Ext):
        free = ((free_variables(expr.body, memo) - {expr.var})
                | free_variables(expr.source, memo))
    elif isinstance(expr, Let):
        free = (free_variables(expr.value, memo)
                | (free_variables(expr.body, memo) - {expr.var}))
    elif isinstance(expr, Case):
        free = free_variables(expr.subject, memo)
        for branch in expr.branches:
            free |= free_variables(branch.body, memo) - {branch.var}
        if expr.default is not None:
            var, body = expr.default
            free |= free_variables(body, memo) - {var}
    else:
        free = frozenset()
        for child in expr.children():
            free |= free_variables(child, memo)
    if memo is not None:
        memo[id(expr)] = free
    return free


def substitute(expr: Expr, name: str, replacement: Expr) -> Expr:
    """Capture-avoiding substitution of ``replacement`` for free ``name`` in ``expr``."""
    if isinstance(expr, Var):
        return replacement if expr.name == name else expr
    if isinstance(expr, Lam):
        return _subst_binder_1(expr, name, replacement, "param", "body",
                               lambda p, b: Lam(p, b))
    if isinstance(expr, Let):
        new_value = substitute(expr.value, name, replacement)
        if expr.var == name:
            return Let(expr.var, new_value, expr.body)
        var, body = _rename_if_captured(expr.var, expr.body, replacement)
        return Let(var, new_value, substitute(body, name, replacement))
    if isinstance(expr, Ext):
        new_source = substitute(expr.source, name, replacement)
        var, body = expr.var, expr.body
        if var != name:
            var, body = _rename_if_captured(var, body, replacement)
            body = substitute(body, name, replacement)
        # rebuild keeps a subclass (ParallelExt, BindScan) and its settings;
        # the copy is fresh, so renaming its binder mutates nothing shared.
        copy = expr.rebuild((body, new_source))
        copy.var = var
        return copy
    if isinstance(expr, Case):
        new_subject = substitute(expr.subject, name, replacement)
        new_branches = []
        for branch in expr.branches:
            if branch.var == name:
                new_branches.append(CaseBranch(branch.tag, branch.var, branch.body))
                continue
            var, body = _rename_if_captured(branch.var, branch.body, replacement)
            new_branches.append(CaseBranch(branch.tag, var, substitute(body, name, replacement)))
        new_default = expr.default
        if new_default is not None:
            dvar, dbody = new_default
            if dvar != name:
                dvar, dbody = _rename_if_captured(dvar, dbody, replacement)
                dbody = substitute(dbody, name, replacement)
            new_default = (dvar, dbody)
        return Case(new_subject, new_branches, new_default)
    children = expr.children()
    if not children:
        return expr
    new_children = [substitute(child, name, replacement) for child in children]
    if all(new is old for new, old in zip(new_children, children)):
        return expr
    return expr.rebuild(new_children)


def _subst_binder_1(expr, name, replacement, param_attr, body_attr, make):
    param = getattr(expr, param_attr)
    body = getattr(expr, body_attr)
    if param == name:
        return expr
    param, body = _rename_if_captured(param, body, replacement)
    return make(param, substitute(body, name, replacement))


def _rename_if_captured(var: str, body: Expr, replacement: Expr) -> Tuple[str, Expr]:
    """Alpha-rename ``var`` in ``body`` if it would capture a free variable of ``replacement``."""
    if var in free_variables(replacement):
        new_var = fresh_var(var.strip("%"))
        body = substitute(body, var, Var(new_var))
        return new_var, body
    return var, body


def node_count(expr: Expr) -> int:
    """Count AST nodes; used in tests and for optimizer statistics."""
    return 1 + sum(node_count(child) for child in expr.children())
