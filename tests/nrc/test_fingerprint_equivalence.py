"""A term's flat fingerprint against the nested one it replaced.

:func:`~repro.core.nrc.compile.term_fingerprint` writes one flat tuple of
tokens in a preorder pass.  The oracle below is the walk it replaced, kept
verbatim: one nested tuple per node, built through a closure per node.  The
flat form is sound as a compile-cache key exactly when it partitions terms
the way the nested one does, so every check here is one statement: two
terms' flat fingerprints are equal exactly when their nested ones are.

The terms are pairs drawn from the differential harness's ``nrc_terms`` and
deep copies of them, the same terms with their binders renamed, and
hand-built corners: ``Const(True)`` / ``Const(1)`` / ``Const(1.0)``,
``ParallelExt`` windows, named and content ``Cached`` keys and a ``Case``
with and without a default.  A ``tracemalloc`` bound keeps the flat form
flat: one 113-character query's fingerprint holds at most 800 bytes (the
nested one held about 3 200).

Below the partition checks: a literal's type name is one object per type
(``adhoc_cold``'s 2 405 fingerprints are bounded through
``tests/footprint.py``), and a literal's token is type-exact down to a
record's or a collection's parts and carries a float zero's sign (``1 ==
1.0`` and ``0.0 == -0.0``, and each pair hashes alike, so a compile cache
keyed on the value alone served one for the other).

Cost: about 7 s on a 2-core box, building ``adhoc_cold``'s pool twice
(generator and measurement) most of it.
"""

import copy
import importlib.util
import itertools
import pathlib
from typing import Tuple

from hypothesis import given, settings, strategies as st

from footprint import adhoc_fingerprints, traced
from repro.core.cpl.desugar import desugar_expression
from repro.core.cpl.parser import parse_expression
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.compile import _const_token, _freeze_request_value, term_fingerprint
from repro.core.optimizer.parallel import ParallelExt
from repro.core.records import Record
from repro.core.values import CBag, CList, CSet, Variant
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import KleisliEngine

# The differential harness's term generator (tests are not a package).
_spec = importlib.util.spec_from_file_location(
    "_differential_terms",
    pathlib.Path(__file__).resolve().parent / "test_compile_differential.py")
_differential = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_differential)
nrc_terms = _differential.nrc_terms

_Scope = Tuple[str, ...]


# -- the oracle: the nested walk, as it was -----------------------------------

def nested_fingerprint(expr: A.Expr) -> Tuple:
    return _fingerprint(expr, ())


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
        # A content-derived key spells out the fingerprint of ``expr`` (a
        # hoisted subquery: no binder of the scope is free in it), so it adds
        # nothing ``sub(expr.expr)`` does not say; printed here too, nested
        # subqueries would repeat their content at every level above them.
        key = expr.key
        if key.startswith(A.Cached.CONTENT_PREFIX):
            key = None
        return (name, key, sub(expr.expr))
    # Unknown node type (no native compiler): structural equality is too
    # loose to key a compile cache (it conflates True/1 and may ignore
    # baked-in attributes), so key on object identity — always sound, at the
    # price of never sharing across rebuilt terms.  The id stays valid
    # because the memoized CompiledQuery keeps its term alive.
    return (name, "identity", id(expr))


# -- the property -------------------------------------------------------------

def assert_same_partition(*terms: A.Expr) -> None:
    """Flat fingerprints are equal exactly where nested ones are."""
    flat = [term_fingerprint(term) for term in terms]
    nested = [nested_fingerprint(term) for term in terms]
    assert all(type(fingerprint) is tuple for fingerprint in flat)
    for (i, a), (j, b) in itertools.combinations(enumerate(terms), 2):
        assert (flat[i] == flat[j]) == (nested[i] == nested[j]), (a, b)


def renamed(term: A.Expr, rename) -> A.Expr:
    """A deep copy of ``term`` with every variable and binder name mapped
    through ``rename``."""
    term = copy.deepcopy(term)
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, A.Var):
            node.name = rename(node.name)
        elif isinstance(node, A.Lam):
            node.param = rename(node.param)
        elif isinstance(node, (A.Let, A.Ext)):
            node.var = rename(node.var)
        elif isinstance(node, A.Case):
            for branch in node.branches:
                branch.var = rename(branch.var)
            if node.default is not None:
                node.default = (rename(node.default[0]), node.default[1])
        stack.extend(node.children())
    return term


@settings(max_examples=200, deadline=None)
@given(nrc_terms, nrc_terms)
def test_flat_fingerprints_partition_terms_as_nested_ones_do(a, b):
    assert_same_partition(a, b, copy.deepcopy(a), copy.deepcopy(b))


@settings(max_examples=100, deadline=None)
@given(nrc_terms)
def test_renamed_binders_partition_alike(term):
    """A one-to-one renaming keeps both fingerprints (the generated terms
    are closed); sending every name to one can capture a variable."""
    primed = renamed(term, lambda name: name + "'")
    assert term_fingerprint(primed) == term_fingerprint(term)
    assert_same_partition(term, primed, renamed(term, lambda name: "%x"))


def test_literals_keep_their_types():
    assert_same_partition(A.Const(True), A.Const(1), A.Const(1.0),
                          A.Const(1), A.Const("1"), A.Const(CSet([1])))
    # ``1 == 1.0 == True`` inside a record, a collection, a variant or a
    # tuple too, so each part's token is type-exact.
    values = [Record({"a": 1}), Record({"a": 1.0}), Record({"a": True}),
              CSet([1]), CSet([1.0]), CList([1]), CList([1.0]), CBag([1]), CBag([True]),
              Variant("t", 1), Variant("t", 1.0), (1,), (1.0,), frozenset([1]),
              frozenset([1.0])]
    assert len({term_fingerprint(A.Const(value)) for value in values}) == len(values)
    assert len({term_fingerprint(A.Scan("D", {"v": value})) for value in values}) == \
        len(values)


def test_parallel_windows_are_part_of_the_fingerprint():
    source = B.var("S")
    body = B.singleton(B.prim("add", B.var("x"), B.const(1)))
    assert_same_partition(
        B.ext("x", body, source),
        *(ParallelExt("x", body, source, "set", workers, adaptive)
          for workers, adaptive in ((2, False), (5, False), (5, True), (2, False))),
        ParallelExt("y", B.singleton(B.prim("add", B.var("y"), B.const(1))), source))


def test_named_and_content_cached_keys():
    scan = A.Scan("T", {"table": "t"}, kind="set")
    other = A.Scan("T", {"table": "u"}, kind="set")
    content = A.Cached(scan)
    assert_same_partition(content, A.Cached(scan), A.Cached(other),
                          A.Cached(scan, key="mine"), A.Cached(scan, key="yours"),
                          A.Cached(other, key="mine"), A.Cached(scan, key=content.key),
                          A.Cached(A.Cached(scan)), A.Cached(A.Cached(scan, key="mine")))


def test_case_with_and_without_a_default():
    subject = B.variant("left", B.const(1))
    left = A.CaseBranch("left", "v", B.var("v"))
    right = A.CaseBranch("right", "v", B.const(0))
    assert_same_partition(
        B.case_of(subject, [left]), B.case_of(subject, [left, right]),
        B.case_of(subject, [left], default=("w", B.const(0))),
        B.case_of(subject, [left], default=("u", B.const(0))),
        B.case_of(subject, [left], default=("w", B.var("w"))),
        B.case_of(subject, [left], default=("u", B.var("u"))),
        B.case_of(subject, [left, right], default=("w", B.const(0))),
        B.case_of(subject, [right, left]))
    # Without the marker these two would write the same tokens.
    bare, after = B.case_of(subject, [left]), B.const(0)
    assert_same_partition(
        B.prim("f", bare, B.case_of(subject, [left], default=("w", after))),
        B.prim("f", B.case_of(subject, [left], default=("w", bare)), after))


def test_counted_parts_end_where_they_end():
    """Without its length, a nested primitive's or record's last part
    would read as its parent's next one."""
    x, y = B.var("X"), B.var("Y")
    assert_same_partition(B.prim("f", B.prim("g", x), y), B.prim("f", B.prim("g", x, y)))
    assert_same_partition(B.record(a=B.record(b=x), c=y), B.record(a=B.record(b=x, c=y)))
    scan = A.Scan("D", {}, args={"a": A.Scan("D", {}, args={"b": x}), "c": y})
    nested = A.Scan("D", {}, args={"a": A.Scan("D", {}, args={"b": x, "c": y})})
    assert_same_partition(scan, nested)


def test_a_query_fingerprint_is_one_small_tuple():
    """The 113-character query's fingerprint holds at most 800 bytes: its
    87-token tuple, 736 on Python 3.11; 892 while each literal's type name
    was a string of its own, 3 188 nested.  (The first fingerprint of a
    process also fills the table of type names.)"""
    term = desugar_expression(parse_expression(
        r"{[chrom = g.chrom, near = {x.sym | \x <- G, x.chrom = g.chrom, x.pos > 400}]"
        r" | \g <- G, g.cls = 2, g.score > 100}"))
    first = term_fingerprint(term)
    held, fingerprint = traced(lambda: term_fingerprint(term))
    assert fingerprint == first == term_fingerprint(copy.deepcopy(term))
    assert held <= 800, held


# -- shared type names -----------------------------------------------------------

def test_literals_of_one_type_share_their_type_token():
    for one, other in ((1000, 2000), (1.5, 2.5), ("a b", "c d"), (True, False)):
        assert _const_token(one)[0] is _const_token(other)[0], (one, other)
    fingerprint = term_fingerprint(desugar_expression(parse_expression("{1000, 2000}")))
    first, second = [token for token in fingerprint if token == "int"]
    assert first is second


#: Traced bytes ``adhoc_cold``'s 2 405 fingerprints at seed 22 may hold,
#: their terms dropped: 1 979 779 on Python 3.11 (1 133 184 of it the
#: tuples); 2 254 807 while every literal's type name was a string of its
#: own.  The rest is mostly names: each fingerprint keeps its term's.
ADHOC_HELD = 2_050_000


def test_adhoc_cold_fingerprints_share_their_type_names(e2e_workloads):
    held, fingerprints = adhoc_fingerprints(e2e_workloads)
    assert len(fingerprints) == 2405
    assert held <= ADHOC_HELD, held


# -- a literal's token is type-exact all the way down ----------------------------

class EchoDriver(Driver):
    """Returns ``[[a = v]]`` for its request's ``v``."""

    def _execute(self, request):
        return CList([Record({"a": request["v"]})])


def test_a_float_zero_keeps_its_sign():
    assert term_fingerprint(A.Const(0.0)) != term_fingerprint(A.Const(-0.0))
    assert term_fingerprint(A.Const(Record({"w": 0.0}))) != \
        term_fingerprint(A.Const(Record({"w": -0.0})))
    for negative, positive in ((-0.0, 0.0), ([-0.0], [0.0]), ({-0.0}, {0.0}),
                               ({"w": -0.0}, {"w": 0.0}),
                               (Record({"w": -0.0}), Record({"w": 0.0}))):
        assert term_fingerprint(A.Scan("D", {"v": negative})) != \
            term_fingerprint(A.Scan("D", {"v": positive})), negative
    # Every other float, and 0.0, keeps its token.
    assert [repr(_const_token(value)) for value in (0.0, 1.5, -1.5)] == [
        "('float', 0.0)", "('float', 1.5)", "('float', -1.5)"]


def test_a_compiled_literal_is_not_served_an_equal_one_of_another_type():
    engine = KleisliEngine()
    engine.register_driver(EchoDriver("Echo"))
    literal = lambda z: A.Singleton(A.RecordExpr({"a": A.Const(z)}), "list")
    record = lambda z: A.Singleton(A.Const(Record({"a": z})), "list")
    scan = lambda z: A.Scan("Echo", {"v": z}, kind="list")
    for make in (literal, record, scan):
        for last in (-0.0, 0, True):
            for z in (0.0, 0.0, 0.0, last):  # admitted from the second lowering on
                (row,) = engine.execute(make(z), {})
                assert repr(row.project("a")) == repr(z), (make, z)
