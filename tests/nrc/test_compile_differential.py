"""Differential testing: the closure compiler against the reference interpreter.

Every hypothesis-generated NRC term is evaluated twice — once by the
tree-walking :class:`~repro.core.nrc.eval.Evaluator` and once through
:func:`~repro.core.nrc.compile.compile_term` — and the two runs must agree on

* the **value** (CPL structural equality), and
* ``EvalStatistics.elements_fetched`` (scan elements + loop iterations +
  fold iterations), which pins the compiled control flow to the
  interpreter's: same number of elements drawn from every source.

Three generators feed the harness:

* type-directed random NRC terms (scalars, records, variants, folds,
  comprehensions, let/lambda, caching) — built well-formed by construction;
* the property-suite's CPL query pool over generated publication data
  (reusing the strategies in ``tests/properties/test_properties.py``);
* the same queries after the monadic rewrite rules, so the compiler is also
  exercised on optimizer *output*.

Together the three families run 550+ examples; the acceptance bar for the
compiled backend is zero divergence.
"""

import importlib.util
import pathlib

from hypothesis import given, settings, strategies as st

from repro.core.errors import ReproError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.compile import compile_term
from repro.core.nrc.eval import Environment, EvalContext, Evaluator
from repro.core.nrc.rules_monadic import monadic_rule_set
from repro.core.cpl.desugar import desugar_expression
from repro.core.cpl.parser import parse_expression
from repro.core.values import from_python

# -- reuse the property-suite strategies (tests are not a package) ------------

_PROPERTIES = pathlib.Path(__file__).resolve().parent.parent / "properties" / "test_properties.py"
_spec = importlib.util.spec_from_file_location("_property_strategies", _PROPERTIES)
_property_strategies = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_property_strategies)

publication_rows = _property_strategies.publication_rows
QUERIES = _property_strategies.QUERIES


# -- the differential oracle --------------------------------------------------

def assert_modes_agree(expr: A.Expr, bindings: dict) -> None:
    """Evaluate ``expr`` under both modes; values and statistics must match."""
    environment = Environment(dict(bindings))

    interp_context = EvalContext()
    try:
        interp_value = Evaluator(interp_context).evaluate(expr, environment)
        interp_error = None
    except ReproError as error:
        interp_value, interp_error = None, error

    compiled = compile_term(expr)
    compiled_context = EvalContext()
    try:
        compiled_value = compiled(environment, compiled_context)
        compiled_error = None
    except ReproError as error:
        compiled_value, compiled_error = None, error

    if interp_error is not None or compiled_error is not None:
        assert interp_error is not None and compiled_error is not None, (
            f"only one mode failed: interpreter={interp_error!r}, "
            f"compiled={compiled_error!r} for {expr!r}")
        return

    assert interp_value == compiled_value, (
        f"value divergence on {expr!r}: {interp_value!r} != {compiled_value!r}")
    assert (interp_context.statistics.elements_fetched
            == compiled_context.statistics.elements_fetched), (
        f"elements_fetched divergence on {expr!r}: "
        f"{interp_context.statistics.as_dict()} != "
        f"{compiled_context.statistics.as_dict()}")


# -- type-directed random NRC terms ------------------------------------------
#
# Terms are generated well-formed by construction: integer-valued expressions,
# boolean conditions over them, and collections of integers / small records.
# Binders introduce numbered variables so inner draws can reference (and
# shadow) outer ones.

_KINDS = st.sampled_from(["set", "bag", "list"])


def _int_leaf(depth):
    options = [st.integers(min_value=-20, max_value=20).map(B.const)]
    if depth > 0:
        options.append(st.sampled_from([f"%n{i}" for i in range(depth)]).map(B.var))
    return st.one_of(options)


def _int_expr(depth, size):
    if size <= 0:
        return _int_leaf(depth)
    smaller = st.deferred(lambda: _int_expr(depth, size - 1))
    arith = st.tuples(st.sampled_from(["add", "sub", "mul"]), smaller, smaller) \
        .map(lambda t: B.prim(t[0], t[1], t[2]))
    conditional = st.tuples(_bool_expr(depth, size - 1), smaller, smaller) \
        .map(lambda t: B.if_then_else(t[0], t[1], t[2]))
    let_bound = st.tuples(smaller, st.deferred(lambda: _int_expr(depth + 1, size - 1))) \
        .map(lambda t: B.let(f"%n{depth}", t[0], t[1]))
    applied = st.tuples(st.deferred(lambda: _int_expr(depth + 1, size - 1)), smaller) \
        .map(lambda t: B.apply(B.lam(f"%n{depth}", t[0]), t[1]))
    aggregated = _int_collection(depth, size - 1).map(lambda c: B.prim("sum", c))
    counted = _int_collection(depth, size - 1).map(lambda c: B.prim("count", c))
    folded = st.tuples(_int_collection(depth, size - 1), _int_leaf(depth)).map(
        lambda t: B.fold(
            B.lam("%acc", B.lam("%item",
                                B.prim("add", B.var("%acc"), B.var("%item")))),
            t[1], t[0]))
    projected = _record_expr(depth, size - 1).map(lambda r: B.project(r, "a"))
    matched = st.tuples(st.sampled_from(["left", "right"]), smaller, smaller,
                        st.booleans()).map(_make_case)
    return st.one_of(_int_leaf(depth), arith, conditional, let_bound, applied,
                     aggregated, counted, folded, projected, matched)


def _make_case(parts):
    tag, payload, other, with_default = parts
    subject = B.variant(tag, payload)
    branches = [A.CaseBranch("left", "%v", B.var("%v"))]
    if with_default:
        return B.case_of(subject, branches,
                         default=("%w", other))
    branches.append(A.CaseBranch("right", "%v",
                                 B.prim("add", B.var("%v"), other)))
    return B.case_of(subject, branches)


def _bool_expr(depth, size):
    comparison = st.tuples(st.sampled_from(["eq", "lt", "le", "gt", "ge", "neq"]),
                           _int_leaf(depth), _int_leaf(depth)) \
        .map(lambda t: B.prim(t[0], t[1], t[2]))
    if size <= 0:
        return comparison
    smaller = st.deferred(lambda: _bool_expr(depth, size - 1))
    connective = st.tuples(st.sampled_from(["and", "or"]), smaller, smaller) \
        .map(lambda t: B.prim(t[0], t[1], t[2]))
    negated = smaller.map(B.not_)
    return st.one_of(comparison, connective, negated)


def _record_expr(depth, size):
    return st.tuples(_int_leaf(depth), _int_leaf(depth)) \
        .map(lambda t: B.record(a=t[0], b=t[1]))


def _int_collection(depth, size, kind="set"):
    literal = st.lists(st.integers(min_value=-10, max_value=10), max_size=5) \
        .map(lambda xs: _literal_collection(xs, kind))
    if size <= 0:
        return literal
    smaller = st.deferred(lambda: _int_collection(depth, size - 1, kind))
    unioned = st.tuples(smaller, smaller) \
        .map(lambda t: B.union(t[0], t[1], kind))
    comprehended = st.tuples(
        smaller,
        st.deferred(lambda: _int_expr(depth + 1, max(0, size - 2))),
        st.booleans(),
        st.deferred(lambda: _bool_expr(depth + 1, 0)),
    ).map(lambda t: B.ext(
        f"%n{depth}",
        B.if_then_else(t[3], B.singleton(t[1], kind), B.empty(kind))
        if t[2] else B.singleton(t[1], kind),
        t[0], kind))
    cached = smaller.map(A.Cached)
    cached_twice = cached.map(lambda c: B.union(c, c, kind))
    return st.one_of(literal, unioned, comprehended, cached_twice)


def _literal_collection(values, kind):
    lifted = from_python(list(values), list_as=kind)
    return A.Const(lifted)


nrc_terms = st.one_of(
    _int_expr(0, 3),
    _KINDS.flatmap(lambda kind: _int_collection(0, 3, kind)),
)


class TestRandomTermDifferential:
    @settings(max_examples=300, deadline=None)
    @given(nrc_terms)
    def test_compiled_agrees_with_interpreter(self, term):
        assert_modes_agree(term, {})


# -- CPL query pool over generated publication data ---------------------------

class TestQueryDifferential:
    @settings(max_examples=150, deadline=None)
    @given(publication_rows, st.sampled_from(QUERIES))
    def test_desugared_queries_agree(self, rows, query):
        db = from_python([dict(row, keywd=set(row["keywd"])) for row in rows],
                         list_as="set")
        nrc = desugar_expression(parse_expression(query))
        assert_modes_agree(nrc, {"DB": db})

    @settings(max_examples=100, deadline=None)
    @given(publication_rows, st.sampled_from(QUERIES))
    def test_optimized_queries_agree(self, rows, query):
        """The compiler must also be sound on rewrite-rule *output*."""
        db = from_python([dict(row, keywd=set(row["keywd"])) for row in rows],
                         list_as="set")
        nrc = monadic_rule_set().apply(desugar_expression(parse_expression(query)))
        assert_modes_agree(nrc, {"DB": db})


# -- fixed regression corners -------------------------------------------------

class TestDifferentialCorners:
    """Hand-picked shapes that stress compiler-specific machinery."""

    def test_escaping_closure_snapshots_loop_frame(self):
        # One closure per element escapes the loop; each must remember *its*
        # element, not the slot's final value.
        term = B.ext("x", B.singleton(B.lam("y", B.var("x"))),
                     A.Const(from_python([1, 2, 3], list_as="set")))
        environment = Environment({})
        compiled_closures = compile_term(term)(environment, EvalContext())
        seen = sorted(closure(None) for closure in compiled_closures)
        assert seen == [1, 2, 3]

    def test_shadowing_binders(self):
        term = B.let("x", B.const(1),
                     B.let("x", B.const(2),
                           B.prim("add", B.var("x"), B.const(10))))
        assert_modes_agree(term, {})

    def test_unbound_variable_in_dead_branch_is_not_reached(self):
        term = B.if_then_else(B.const(True), B.const(1), B.var("missing"))
        assert_modes_agree(term, {})

    def test_unbound_variable_in_live_branch_raises_in_both_modes(self):
        term = B.if_then_else(B.const(False), B.const(1), B.var("missing"))
        assert_modes_agree(term, {})

    def test_unknown_primitive_raises_lazily(self):
        term = B.if_then_else(B.const(True), B.const(1),
                              B.prim("no_such_primitive", B.const(1)))
        assert_modes_agree(term, {})

    def test_join_plans_agree(self):
        from repro.core.optimizer.caching import make_caching_rule_set
        from repro.core.values import CSet, Record

        outer = CSet([Record({"id": i, "s": f"o{i}"}) for i in range(40)])
        inner = CSet([Record({"ref": i % 13, "v": i}) for i in range(40)])
        condition = B.eq(B.project(B.var("o"), "id"), B.project(B.var("i"), "ref"))
        head = B.record(s=B.project(B.var("o"), "s"), v=B.project(B.var("i"), "v"))

        def loop(inner_source):
            return B.ext("o", B.ext("i", B.if_then_else(
                condition, B.singleton(head), B.empty()), inner_source), B.var("OUTER"))

        nested = loop(B.var("INNER"))
        indexed = make_caching_rule_set().apply(nested)
        assert "probe(cached(index(INNER by" in indexed.pretty()
        bindings = {"OUTER": outer, "INNER": inner}
        assert_modes_agree(nested, bindings)
        assert_modes_agree(indexed, bindings)
        blocked = loop(A.Cached(B.ext("s", B.singleton(B.var("s")), B.var("INNER"))))
        assert_modes_agree(blocked, bindings)

    def test_guarded_probe_as_a_loop_source_is_the_let_it_stands_for(self):
        """The compiled loop probes from the parts of ``guarded_probe``: the
        key stays unevaluated behind an empty index, a key that raises raises,
        a probe of something that is no index is the primitive's error, and a
        ``let`` that only looks like the guard (its key mentions the index) is
        compiled as the ``let`` it is."""
        from repro.core.values import CList, Record

        rows = CList([Record({"k": i % 3, "v": i}) for i in range(7)])
        keyed = A.keyed_rows("y", [], B.project(B.var("y"), "k"), B.var("ROWS"))
        index = A.Cached(B.prim("index", keyed))
        bad_key = B.prim("div", B.const(1), B.const(0))

        def loop(source):
            return B.ext("x", B.ext("y", B.singleton(B.project(B.var("y"), "v"), "list"),
                                    source, "list"), B.var("KEYS"), "list")

        for keys in (CList([0, 2, 5]), CList()):
            for table in (rows, CList()):
                bindings = {"ROWS": table, "KEYS": keys}
                assert_modes_agree(loop(A.guarded_probe(index, B.var("x"), "list")), bindings)
                assert_modes_agree(loop(A.guarded_probe(index, bad_key, "list")), bindings)
        bindings = {"ROWS": rows, "KEYS": CList([1])}
        assert_modes_agree(loop(A.guarded_probe(B.var("ROWS"), B.var("x"), "list")), bindings)
        lookalike = A.Let("i", index, A.IfThenElse(
            B.prim("isempty", B.var("i")), A.Empty("list"),
            B.prim("probe", B.var("i"), B.prim("count", B.var("i")))))
        assert A.guarded_probe_parts(lookalike) is None
        assert_modes_agree(loop(lookalike), bindings)
