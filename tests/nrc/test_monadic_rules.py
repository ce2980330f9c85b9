"""Tests for the monadic rewrite rules R1–R4 and the supporting laws.

Each rule is checked both for the *shape* it produces and for semantic
preservation (optimized and unoptimized terms evaluate to the same value).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cpl.desugar import desugar_expression
from repro.core.cpl.parser import parse_expression
from repro.core.errors import EvaluationError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc import rules_monadic
from repro.core.nrc.eval import evaluate
from repro.core.nrc.rewrite import RewriteStats, RuleSet
from repro.core.nrc.rules_monadic import (
    MONADIC_RULES,
    monadic_rule_set,
    rule_case_of_variant,
    rule_ext_filtered_source,
    rule_ext_singleton_body,
    rule_ext_singleton_source,
    rule_ext_union_source,
    rule_filter_promotion,
    rule_horizontal_fusion,
    rule_projection_reduction,
    rule_vertical_fusion,
)
from repro.core.values import CBag, CList, CSet, Record


def ext_depth(expr):
    """Longest chain of nested Ext nodes (a proxy for intermediate collections)."""
    if isinstance(expr, A.Ext):
        return 1 + max((ext_depth(child) for child in expr.children()), default=0)
    return max((ext_depth(child) for child in expr.children()), default=0)


class TestR1VerticalFusion:
    def _producer_consumer(self):
        # U{ {x * 10} | \x <- U{ {y + 1} | \y <- S } }
        producer = B.ext("y", B.singleton(B.prim("add", B.var("y"), B.const(1))), B.var("S"))
        return B.ext("x", B.singleton(B.prim("mul", B.var("x"), B.const(10))), producer)

    def test_shape_becomes_single_outer_loop(self):
        fused = rule_vertical_fusion.apply(self._producer_consumer())
        assert fused is not None
        assert isinstance(fused, A.Ext)
        assert isinstance(fused.source, A.Var)  # the inner source is now the outer source

    def test_semantics_preserved(self):
        expr = self._producer_consumer()
        fused = rule_vertical_fusion.apply(expr)
        data = {"S": CSet([1, 2, 3])}
        assert evaluate(expr, data) == evaluate(fused, data) == CSet([20, 30, 40])

    def test_binder_capture_is_avoided(self):
        # The consumer body references a free variable named like the inner binder.
        producer = B.ext("y", B.singleton(B.var("y")), B.var("S"))
        consumer = B.ext("x", B.singleton(B.prim("add", B.var("x"), B.var("y"))), producer)
        fused = rule_vertical_fusion.apply(consumer)
        data = {"S": CSet([1, 2]), "y": 100}
        assert evaluate(consumer, data) == evaluate(fused, data) == CSet([101, 102])

    def test_not_applicable_across_collection_kinds(self):
        producer = B.ext("y", B.singleton(B.var("y"), "list"), B.var("S"), "list")
        consumer = B.ext("x", B.singleton(B.var("x")), producer)
        assert rule_vertical_fusion.apply(consumer) is None


class TestR2HorizontalFusion:
    def _two_loops(self, kind="set"):
        left = B.ext("x", B.singleton(B.prim("add", B.var("x"), B.const(1)), kind),
                     B.var("S"), kind)
        right = B.ext("x", B.singleton(B.prim("mul", B.var("x"), B.const(2)), kind),
                      B.var("S"), kind)
        return B.union(left, right, kind)

    def test_two_traversals_become_one(self):
        fused = rule_horizontal_fusion.apply(self._two_loops())
        assert isinstance(fused, A.Ext)
        assert isinstance(fused.body, A.Union)

    def test_semantics_preserved_for_sets_and_bags(self):
        for kind, cls in (("set", CSet), ("bag", CBag)):
            expr = self._two_loops(kind)
            fused = rule_horizontal_fusion.apply(expr)
            data = {"S": cls([1, 2, 3])}
            assert evaluate(expr, data) == evaluate(fused, data)

    def test_rule_does_not_apply_to_lists(self):
        """The paper: R2 applies to sets and multisets, but not to lists."""
        assert rule_horizontal_fusion.apply(self._two_loops("list")) is None

    def test_rule_requires_identical_sources(self):
        left = B.ext("x", B.singleton(B.var("x")), B.var("S"))
        right = B.ext("x", B.singleton(B.var("x")), B.var("T"))
        assert rule_horizontal_fusion.apply(B.union(left, right)) is None


class TestR3FilterPromotion:
    def _loop_with_invariant_filter(self):
        body = B.if_then_else(B.prim("gt", B.var("threshold"), B.const(5)),
                              B.singleton(B.var("x")), B.empty())
        return B.ext("x", body, B.var("S"))

    def test_filter_moves_out_of_loop(self):
        promoted = rule_filter_promotion.apply(self._loop_with_invariant_filter())
        assert isinstance(promoted, A.IfThenElse)
        assert isinstance(promoted.then_branch, A.Ext)

    def test_semantics_preserved(self):
        expr = self._loop_with_invariant_filter()
        promoted = rule_filter_promotion.apply(expr)
        for threshold in (1, 10):
            data = {"S": CSet([1, 2]), "threshold": threshold}
            assert evaluate(expr, data) == evaluate(promoted, data)

    def test_dependent_filter_stays_inside(self):
        body = B.if_then_else(B.prim("gt", B.var("x"), B.const(5)),
                              B.singleton(B.var("x")), B.empty())
        assert rule_filter_promotion.apply(B.ext("x", body, B.var("S"))) is None


class TestR4ProjectionReduction:
    def test_projection_of_record_literal_reduces(self):
        expr = B.project(B.record(l1=B.apply(B.var("f"), B.var("y")), l2=B.var("g")), "l1")
        assert rule_projection_reduction.apply(expr) == B.apply(B.var("f"), B.var("y"))

    def test_missing_label_is_left_alone(self):
        expr = B.project(B.record(a=B.const(1)), "b")
        assert rule_projection_reduction.apply(expr) is None

    def test_paper_composition_of_r1_and_r4(self):
        """The paper's example: R1 then R4 turns the nested projection loop into U{{f(y)} | y <- R}."""
        inner = B.ext("y", B.singleton(B.record(l1=B.apply(B.var("f"), B.var("y")),
                                                l2=B.apply(B.var("g"), B.var("y")))),
                      B.var("R"))
        outer = B.ext("x", B.singleton(B.project(B.var("x"), "l1")), inner)
        optimized = monadic_rule_set().apply(outer)
        assert isinstance(optimized, A.Ext)
        assert isinstance(optimized.source, A.Var)       # single loop over R
        # The record construction (and g's column) is gone entirely.
        assert "l2" not in optimized.pretty()
        data = {"R": CSet([1, 2, 3]), "f": lambda v: v * 10, "g": lambda v: v + 1}
        assert evaluate(outer, data) == evaluate(optimized, data) == CSet([10, 20, 30])


class TestSupportingRules:
    def test_left_unit_law(self):
        expr = B.ext("x", B.singleton(B.prim("add", B.var("x"), B.const(1))),
                     B.singleton(B.const(41)))
        assert rule_ext_singleton_source.apply(expr) == \
            B.singleton(B.prim("add", B.const(41), B.const(1)))

    @pytest.mark.parametrize("kind,collection", [("set", CSet), ("bag", CBag), ("list", CList)])
    def test_loop_over_a_guarded_source_runs_under_the_guard(self, kind, collection):
        # U{ {x + 1} | \x <- if p then S else {} }  -->  if p then U{...| \x <- S} else {}
        guarded = A.IfThenElse(B.var("p"), B.var("S"), A.Empty(kind))
        expr = B.ext("x", B.singleton(B.prim("add", B.var("x"), B.const(1)), kind),
                     guarded, kind)
        promoted = rule_ext_filtered_source.apply(expr)
        assert isinstance(promoted, A.IfThenElse) and promoted.cond == B.var("p")
        assert isinstance(promoted.then_branch, A.Ext)
        assert promoted.then_branch.source == B.var("S")
        assert promoted.else_branch == A.Empty(kind)
        for flag in (True, False):
            data = {"S": collection([1, 2, 2]), "p": flag}
            assert evaluate(expr, data) == evaluate(promoted, data)

    def test_guard_naming_the_loop_variable_is_not_captured(self):
        # The guard's x is the OUTER x; it stays outside the binder on both sides.
        guarded = A.IfThenElse(B.prim("gt", B.var("x"), B.const(0)), B.var("S"), A.Empty("set"))
        expr = B.ext("x", B.singleton(B.var("x")), guarded)
        promoted = rule_ext_filtered_source.apply(expr)
        for outer in (1, -1):
            data = {"S": CSet([5, 6]), "x": outer}
            assert evaluate(expr, data) == evaluate(promoted, data)

    def test_consumer_fuses_through_a_filtered_producer(self):
        """Closure under composition: a view with a filter, consumed by
        another comprehension, normalises to the same flat block as the
        hand-inlined query — no loop over a conditional source survives."""
        view = B.ext("y", A.IfThenElse(B.prim("gt", B.var("y"), B.const(1)),
                                       B.singleton(B.record(v=B.var("y"))), A.Empty("set")),
                     B.var("S"))
        inner = B.ext("z", B.singleton(B.prim("add", B.project(B.var("w"), "v"), B.var("z"))),
                      B.var("T"))
        consumer = B.ext("w", inner, view)
        normal = monadic_rule_set().apply(consumer)

        def loops_over_conditional(node):
            if isinstance(node, A.Ext) and isinstance(node.source, (A.IfThenElse, A.Ext)):
                return True
            return any(loops_over_conditional(child) for child in node.children())

        assert not loops_over_conditional(normal)
        data = {"S": CSet([1, 2, 3]), "T": CSet([10, 20])}
        assert evaluate(consumer, data) == evaluate(normal, data) == CSet([12, 22, 13, 23])

    def test_case_of_variant_resolves_statically(self):
        expr = B.case_of(B.variant("giim", B.const(5)),
                         [A.CaseBranch("giim", "v", B.var("v"))])
        assert rule_case_of_variant.apply(expr) == A.Const(5)

    def test_full_rule_set_is_semantics_preserving_on_nested_query(self):
        db = CSet([Record({"title": "A", "keywd": CSet(["k1", "k2"])}),
                   Record({"title": "B", "keywd": CSet(["k1"])})])
        inner = B.ext("p", B.singleton(B.record(t=B.project(B.var("p"), "title"),
                                                ks=B.project(B.var("p"), "keywd"))),
                      B.var("DB"))
        outer = B.ext("r", B.ext("k", B.singleton(B.record(title=B.project(B.var("r"), "t"),
                                                           keyword=B.var("k"))),
                                 B.project(B.var("r"), "ks")), inner)
        stats = RewriteStats()
        optimized = monadic_rule_set().apply(outer, stats)
        assert stats.fired("R1-vertical-fusion") >= 1
        assert evaluate(outer, {"DB": db}) == evaluate(optimized, {"DB": db})

    def test_every_exported_rule_is_in_the_one_rule_order(self):
        exported = [getattr(rules_monadic, name) for name in rules_monadic.__all__
                    if name.startswith("rule_")]
        assert exported and set(exported) == set(MONADIC_RULES)
        assert len(set(MONADIC_RULES)) == len(MONADIC_RULES)
        assert monadic_rule_set().rules == MONADIC_RULES

    def test_a_rule_left_out_of_the_order_does_not_fire(self):
        rule_set = RuleSet("no-R1", [rule for rule in MONADIC_RULES
                                     if rule is not rule_vertical_fusion])
        inner = B.ext("y", B.singleton(B.var("y")), B.var("S"))
        outer = B.ext("x", B.singleton(B.var("x")), inner)
        stats = RewriteStats()
        rule_set.apply(outer, stats)
        assert stats.fired("R1-vertical-fusion") == 0

    def test_fusion_reduces_intermediate_collection_size(self):
        """The point of R1: less intermediate data (observable via evaluator statistics)."""
        from repro.core.nrc.eval import EvalContext, Evaluator

        source = B.const(CSet(range(100)))
        producer = B.ext("y", B.singleton(B.record(a=B.var("y"), b=B.var("y"))), source)
        consumer = B.ext("x", B.singleton(B.project(B.var("x"), "a")), producer)
        optimized = monadic_rule_set().apply(consumer)

        unopt_context = EvalContext()
        Evaluator(unopt_context).evaluate(consumer)
        opt_context = EvalContext()
        Evaluator(opt_context).evaluate(optimized)
        assert opt_context.statistics.ext_iterations < unopt_context.statistics.ext_iterations


def _head(var):
    return B.record(acc=B.project(B.var(var), "acc"), org=B.project(B.var(var), "org"))


class TestLiteralUnion:
    """``{x | \\s <- {A, B, C}, \\x <- s}`` — how CPL spells an n-ary union."""

    QUERY = ('{x | \\s <- {{[acc = a.acc, org = a.org] | \\a <- TA},'
             ' {[acc = b.acc, org = b.org] | \\b <- TB},'
             ' {[acc = c.acc, org = c.org] | \\c <- TC}}, \\x <- s}')

    def test_reaches_a_union_chain_at_a_fixpoint(self):
        stats = RewriteStats()
        raw = desugar_expression(parse_expression(self.QUERY))
        normal = monadic_rule_set().apply(raw, stats)
        assert isinstance(normal, A.Union) and isinstance(normal.right, A.Union)
        operands = [normal.left, normal.right.left, normal.right.right]
        for operand, table in zip(operands, ("TA", "TB", "TC")):
            assert isinstance(operand, A.Ext) and operand.source == B.var(table)
            assert operand.body == B.singleton(_head(operand.var))
        assert stats.fired("ext-union-source") == 2
        assert stats.fired("ext-singleton-body") == 3
        assert monadic_rule_set().apply(normal) == normal
        rows = lambda *accs: CSet([Record({"acc": acc, "org": "h", "n": i})
                                   for i, acc in enumerate(accs)])
        data = {"TA": rows("a", "b", "a"), "TB": rows("b", "c"), "TC": rows("d", "a")}
        assert list(evaluate(normal, data)) == list(evaluate(raw, data))
        assert len(evaluate(normal, data)) == 4

    def test_right_unit_needs_a_source_proven_to_be_of_the_loop_kind(self):
        rebuild = lambda source, kind: B.ext("x", B.singleton(B.var("x"), kind), source, kind)
        proven = B.ext("y", B.singleton(B.prim("add", B.var("y"), B.const(1))), B.var("S"))
        assert rule_ext_singleton_body.apply(rebuild(proven, "set")) == proven
        # A bound variable's class is not known statically...
        assert rule_ext_singleton_body.apply(rebuild(B.var("S"), "set")) is None
        # ...and a loop over another kind converts it: {x | \x <- [|1, 1|]} is {1}.
        a_list = B.union(B.singleton(B.const(1), "list"), B.singleton(B.const(1), "list"), "list")
        assert rule_ext_singleton_body.apply(rebuild(a_list, "set")) is None
        assert rule_ext_singleton_body.apply(rebuild(a_list, "list")) == a_list
        # The body must rebuild the element itself, in the loop's kind.
        other = B.ext("x", B.singleton(B.var("z")), proven)
        assert rule_ext_singleton_body.apply(other) is None

    def test_loop_over_literal_scalars_keeps_its_one_loop(self):
        literal = B.union(B.singleton(B.const("M1")),
                          B.union(B.singleton(B.const("M2")), B.singleton(B.const("M3"))))
        scan = A.Scan("GenBank", {"db": "na"}, args={"select": B.var("a")}, kind="set")
        loop = B.ext("a", scan, literal)
        assert rule_ext_union_source.apply(loop) is None
        assert monadic_rule_set().apply(loop) == loop

    def test_body_is_not_copied_over_a_general_union(self):
        view = lambda table: B.ext("y", B.singleton(B.var("y")), B.var(table))
        loop = B.ext("x", B.singleton(B.prim("add", B.var("x"), B.const(1))),
                     B.union(view("S"), view("T")))
        assert rule_ext_union_source.apply(loop) is None
        # One operand that is not a collection literal is enough.
        mixed = B.ext("s", B.var("s"), B.union(B.singleton(view("S")), B.var("REST")))
        assert rule_ext_union_source.apply(mixed) is None

    def test_a_literal_of_another_kind_is_not_distributed(self):
        # {{|1|}, {|1|}} has one element: a bag loop over it runs once, not twice.
        one = B.singleton(B.singleton(B.const(1), "bag"))
        loop = B.ext("s", B.var("s"), B.union(one, one), "bag")
        assert rule_ext_union_source.apply(loop) is None
        assert evaluate(monadic_rule_set().apply(loop), {}) == evaluate(loop, {}) == CBag([1])


KINDS = ("set", "bag", "list")
_TABLES = {"set": CSet([0, 1, 2, 1]), "bag": CBag([0, 1, 2, 1]), "list": CList([0, 1, 2, 1])}


def _element(var, pick):
    """An integer expression over ``var``; pick 2 raises where ``var`` is 0."""
    if pick == 0:
        return B.var(var)
    if pick == 1:
        return B.prim("mod", B.var(var), B.const(2))
    return B.prim("div", B.const(6), B.var(var))


@st.composite
def _collections(draw, kind, depth=2):
    """A well-typed term for a kind-``kind`` collection of integers."""
    shape = draw(st.integers(0, 5 if depth else 2))
    if shape == 0:
        return B.var("T_" + kind)          # class not provable
    if shape == 1:
        return A.Empty(kind)
    if shape == 2:
        return B.singleton(B.const(draw(st.integers(0, 2))), kind)
    if shape == 3:
        return B.union(draw(_collections(kind, depth - 1)),
                       draw(_collections(kind, depth - 1)), kind)
    if shape == 4:
        return A.IfThenElse(B.const(draw(st.booleans())),
                            draw(_collections(kind, depth - 1)), A.Empty(kind))
    source = draw(_collections(draw(st.sampled_from(KINDS)), depth - 1))
    var = draw(st.sampled_from(("x", "y")))
    return B.ext(var, B.singleton(_element(var, draw(st.integers(0, 2))), kind), source, kind)


@st.composite
def _literals(draw, kind, depth=2):
    """A ``{A, B, ...}`` literal — now and then with an operand that is not."""
    shape = draw(st.integers(0, 9))
    if depth and shape >= 5:
        return B.union(draw(_literals(kind, depth - 1)), draw(_literals(kind, depth - 1)), kind)
    if shape == 0:
        return A.Empty(kind)
    if shape == 1:
        return B.var("NESTED_" + kind)
    return B.singleton(draw(_collections(draw(st.sampled_from(KINDS)))), kind)


@st.composite
def _subjects(draw):
    kind = draw(st.sampled_from(KINDS))
    if draw(st.booleans()):
        source = draw(_collections(draw(st.sampled_from(KINDS))))
        return B.ext("x", B.singleton(B.var("x"), kind), source, kind)
    body = B.ext("x", B.singleton(_element("x", draw(st.integers(0, 2))), kind),
                 B.var("s"), kind)
    return B.ext("s", body, draw(_literals(draw(st.sampled_from(KINDS)))), kind)


def _outcome(expr, data):
    try:
        value = evaluate(expr, data)
        return (type(value), list(value))
    except EvaluationError:
        return "raises"


@settings(max_examples=300, deadline=None)
@given(_subjects())
def test_unit_and_literal_union_rules_preserve_value_and_raises(expr):
    """The right unit and the literal-union distribution, alone and with the
    left unit that finishes the job, against the interpreter on the term as
    written: the same class, elements and order, and a raise iff it raises."""
    data = {"T_" + kind: table for kind, table in _TABLES.items()}
    data.update({"NESTED_" + kind: type(table)([CList([2, 0]), CList([1])])
                 for kind, table in _TABLES.items()})
    new_rules = (rule_ext_singleton_body, rule_ext_union_source)
    for rules in (new_rules, new_rules + (rule_ext_singleton_source,)):
        rewritten = RuleSet("subject", rules).apply(expr)
        assert _outcome(rewritten, data) == _outcome(expr, data), rewritten.pretty()
