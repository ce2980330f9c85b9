"""Tests for the NRC evaluator: every node type, closures, joins, caching, scans."""

import pytest

from repro.core.errors import EvaluationError, UnboundVariableError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.eval import Environment, EvalContext, EvalStatistics, Evaluator, evaluate
from repro.core.optimizer.caching import make_caching_rule_set
from repro.core.values import CBag, CList, CSet, Record, Ref, UNIT_VALUE, Variant


class TestBasicNodes:
    def test_const_and_var(self):
        assert evaluate(B.const(42)) == 42
        assert evaluate(B.var("x"), {"x": "hello"}) == "hello"

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            evaluate(B.var("missing"))

    def test_lambda_and_application(self):
        inc = B.lam("x", B.prim("add", B.var("x"), B.const(1)))
        assert evaluate(B.apply(inc, B.const(41))) == 42

    def test_applying_non_function_fails(self):
        with pytest.raises(EvaluationError):
            evaluate(B.apply(B.const(3), B.const(4)))

    def test_native_python_callable_can_be_applied(self):
        assert evaluate(B.apply(B.var("f"), B.const(2)), {"f": lambda x: x * 10}) == 20

    def test_record_construction_and_projection(self):
        record = B.record(title=B.const("A"), year=B.const(1989))
        assert evaluate(B.project(record, "year")) == 1989
        with pytest.raises(EvaluationError):
            evaluate(B.project(record, "missing"))

    def test_projection_of_non_record_fails(self):
        with pytest.raises(EvaluationError):
            evaluate(B.project(B.const(3), "x"))

    def test_variant_and_case(self):
        subject = B.variant("uncontrolled", B.const("Notes"))
        expr = B.case_of(subject, [A.CaseBranch("uncontrolled", "s", B.var("s"))])
        assert evaluate(expr) == "Notes"

    def test_case_default_branch(self):
        subject = B.variant("other", B.const(1))
        expr = B.case_of(subject, [A.CaseBranch("x", "v", B.var("v"))],
                         default=("whole", B.const("fallback")))
        assert evaluate(expr) == "fallback"

    def test_case_without_match_fails(self):
        subject = B.variant("other", B.const(1))
        expr = B.case_of(subject, [A.CaseBranch("x", "v", B.var("v"))])
        with pytest.raises(EvaluationError):
            evaluate(expr)

    def test_if_requires_boolean(self):
        with pytest.raises(EvaluationError):
            evaluate(B.if_then_else(B.const(1), B.const(2), B.const(3)))

    def test_let_binding(self):
        expr = B.let("x", B.const(5), B.prim("mul", B.var("x"), B.var("x")))
        assert evaluate(expr) == 25

    def test_deref(self):
        class Store:
            def resolve(self, ref):
                return Record({"name": ref.identifier})

        ref = Ref("Locus", "D22S1", Store())
        assert evaluate(A.Deref(B.const(ref))) == Record({"name": "D22S1"})
        assert evaluate(B.project(B.const(ref), "name")) == "D22S1"


class TestCollectionsAndExt:
    def test_empty_singleton_union(self):
        assert evaluate(B.empty("set")) == CSet()
        assert evaluate(B.singleton(B.const(1), "bag")) == CBag([1])
        assert evaluate(B.union(B.singleton(B.const(1), "list"),
                                B.singleton(B.const(2), "list"), "list")) == CList([1, 2])

    def test_union_kind_mismatch_fails(self):
        expr = B.union(B.singleton(B.const(1), "set"), B.singleton(B.const(2), "list"), "set")
        with pytest.raises(EvaluationError):
            evaluate(expr)

    def test_ext_is_flat_map(self):
        source = B.const(CSet([1, 2, 3]))
        body = B.singleton(B.prim("mul", B.var("x"), B.const(10)))
        assert evaluate(B.ext("x", body, source)) == CSet([10, 20, 30])

    def test_ext_over_list_preserves_duplicates_and_order(self):
        source = B.const(CList([1, 2, 2]))
        body = B.singleton(B.var("x"), "list")
        assert evaluate(B.ext("x", body, source, "list")) == CList([1, 2, 2])

    def test_ext_body_must_be_collection(self):
        expr = B.ext("x", B.var("x"), B.const(CSet([1])))
        with pytest.raises(EvaluationError):
            evaluate(expr)

    def test_comprehension_builder(self):
        expr = B.comprehension(B.var("x"), [("x", B.const(CSet([1, 2, 3, 4]))),
                                            B.prim("gt", B.var("x"), B.const(2))])
        assert evaluate(expr) == CSet([3, 4])

    def test_statistics_track_iterations_and_intermediates(self):
        context = EvalContext()
        source = B.const(CSet(range(10)))
        expr = B.ext("x", B.singleton(B.var("x")), source)
        Evaluator(context).evaluate(expr)
        assert context.statistics.ext_iterations == 10
        assert context.statistics.peak_intermediate == 10


class TestScanAndCache:
    def test_scan_requires_executor(self):
        with pytest.raises(EvaluationError):
            evaluate(A.Scan("GDB", {"table": "locus"}))

    def test_scan_calls_executor_with_evaluated_args(self):
        seen = []

        def executor(driver, request):
            seen.append((driver, request))
            return CSet([1, 2])

        context = EvalContext(driver_executor=executor)
        scan = A.Scan("GDB", {"table": "locus"}, {"extra": B.const("arg")})
        result = Evaluator(context).evaluate(scan)
        assert result == CSet([1, 2])
        assert seen == [("GDB", {"table": "locus", "extra": "arg"})]
        assert context.statistics.scan_requests == 1
        assert context.statistics.scan_elements == 2

    def test_cached_node_evaluates_once(self):
        calls = []

        def executor(driver, request):
            calls.append(request)
            return CSet([1])

        context = EvalContext(driver_executor=executor)
        cached = A.Cached(A.Scan("GDB", {"table": "locus"}), key="k1")
        loop = B.ext("x", B.ext("y", B.singleton(B.var("y")), cached),
                     B.const(CSet([1, 2, 3])))
        Evaluator(context).evaluate(loop)
        assert len(calls) == 1
        assert context.statistics.cache_hits == 2
        assert context.statistics.cache_misses == 1


class TestJoins:
    def _inputs(self):
        outer = CSet([Record({"id": i, "name": f"n{i}"}) for i in range(1, 6)])
        inner = CSet([Record({"ref": i % 3, "data": f"d{i}"}) for i in range(6)])
        return outer, inner

    def _expected(self, outer, inner):
        return CSet([
            Record({"name": o.project("name"), "data": i.project("data")})
            for o in outer for i in inner
            if o.project("id") == i.project("ref")
        ])

    def _loop(self, outer, inner):
        head = B.record(name=B.project(B.var("o"), "name"), data=B.project(B.var("i"), "data"))
        return B.ext("o", B.ext("i", B.if_then_else(
            B.eq(B.project(B.var("i"), "ref"), B.project(B.var("o"), "id")),
            B.singleton(head), B.empty()), inner), B.const(outer))

    def test_blocked_join_matches_nested_loop_semantics(self):
        """The blocked join: the loop over an inner side computed once."""
        outer, inner = self._inputs()
        context = EvalContext()
        join = self._loop(outer, A.Cached(B.ext("s", B.singleton(B.var("s")), B.const(inner))))
        assert Evaluator(context).evaluate(join) == self._expected(outer, inner)
        assert (context.statistics.cache_misses, context.statistics.cache_hits) == (1, 4)

    def test_indexed_join_matches_nested_loop_semantics(self):
        """The indexed join: the loop over a probe of an index built once."""
        outer, inner = self._inputs()
        context = EvalContext()
        join = make_caching_rule_set().apply(self._loop(outer, B.const(inner)))
        assert "probe(cached(index(" in join.pretty()
        assert Evaluator(context).evaluate(join) == self._expected(outer, inner)
        # 5 outer rows, 6 rows indexed once, 4 matched pairs.
        assert context.statistics.ext_iterations == 5 + 6 + 4
        assert (context.statistics.cache_misses, context.statistics.cache_hits) == (1, 4)


class TestEnvironmentChain:
    """lookup/contains share one chain walk; shadowing across child/extended."""

    def test_child_shadows_parent(self):
        env = Environment({"x": 1, "y": 2}).child("x", 10)
        assert env.lookup("x") == 10
        assert env.lookup("y") == 2
        assert env.contains("x") and env.contains("y")

    def test_extended_shadows_across_levels(self):
        env = (Environment({"x": 1})
               .extended({"x": 2, "y": 2})
               .child("y", 3)
               .extended({"z": 4}))
        assert env.lookup("x") == 2
        assert env.lookup("y") == 3
        assert env.lookup("z") == 4

    def test_contains_agrees_with_lookup_for_shadowed_names(self):
        env = Environment({"x": 1}).child("x", None).child("q", False)
        for name in ("x", "q"):
            assert env.contains(name)
            env.lookup(name)  # must not raise
        assert env.lookup("x") is None
        assert env.lookup("q") is False

    def test_missing_name_is_consistent(self):
        env = Environment({"x": 1}).child("y", 2)
        assert not env.contains("z")
        with pytest.raises(UnboundVariableError):
            env.lookup("z")

    def test_none_valued_binding_is_not_missing(self):
        """A binding whose value is None must not look like an absent one."""
        env = Environment({"x": None})
        assert env.contains("x")
        assert env.lookup("x") is None
