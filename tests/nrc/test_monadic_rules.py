"""Tests for the monadic rewrite rules R1–R4 and the supporting laws.

Each rule is checked both for the *shape* it produces and for semantic
preservation (optimized and unoptimized terms evaluate to the same value).
"""

import pytest

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.eval import evaluate
from repro.core.nrc.rewrite import RewriteStats
from repro.core.nrc.rules_monadic import (
    monadic_rule_set,
    rule_case_of_variant,
    rule_ext_filtered_source,
    rule_ext_singleton_source,
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

    def test_ablation_switches_disable_rules(self):
        rule_set = monadic_rule_set(include_vertical=False)
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
