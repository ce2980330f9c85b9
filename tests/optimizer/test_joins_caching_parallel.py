"""Tests for the non-monadic optimizations: local joins, subquery caching, parallel loops."""

import pytest

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.compile import term_fingerprint
from repro.core.nrc.eval import EvalContext, Evaluator, evaluate
from repro.core.nrc.rewrite import RewriteStats
from repro.core.optimizer.caching import make_caching_rule_set
from repro.core.optimizer.joins import make_join_rule_set
from repro.core.optimizer.parallel import ParallelExt, make_parallel_rule_set
from repro.core.values import CBag, CSet, Record


def nested_loop_join_expr():
    """U{ U{ if o.id = i.ref then {[n=o.name, d=i.data]} else {} | i <- INNER } | o <- OUTER }"""
    condition = B.eq(B.project(B.var("o"), "id"), B.project(B.var("i"), "ref"))
    head = B.record(n=B.project(B.var("o"), "name"), d=B.project(B.var("i"), "data"))
    inner = B.ext("i", B.if_then_else(condition, B.singleton(head), B.empty()), B.var("INNER"))
    return B.ext("o", inner, B.var("OUTER"))


def join_data(outer_size=20, inner_size=30):
    outer = CSet([Record({"id": i, "name": f"n{i}"}) for i in range(outer_size)])
    inner = CSet([Record({"ref": i % 10, "data": f"d{i}"}) for i in range(inner_size)])
    return {"OUTER": outer, "INNER": inner}


def local_join_plan(expr):
    """The two stages that plan a local join, in pipeline order: the join
    stage puts the key first, the decorrelation stage probes or hoists."""
    return make_caching_rule_set().apply(make_join_rule_set().apply(expr))


def _probes(expr):
    return [node for node in _subterms(expr)
            if isinstance(node, A.PrimCall) and node.name == "probe"]


class TestJoinRuleSet:
    def test_equality_condition_yields_a_probe(self):
        expr = nested_loop_join_expr()
        assert make_join_rule_set().apply(expr) == expr     # the key is already first
        plan = local_join_plan(expr)
        probe, = _probes(plan)
        assert probe.args[1] == B.project(B.var("o"), "id")
        assert plan.source == B.var("OUTER")

    def test_non_equality_condition_loops_over_a_hoisted_inner(self):
        condition = B.prim("lt", B.project(B.var("o"), "id"), B.project(B.var("i"), "ref"))
        subquery = B.ext("s", B.singleton(B.var("s")), B.var("INNER"))
        inner = B.ext("i", B.if_then_else(condition, B.singleton(B.const(1)), B.empty()),
                      subquery)
        expr = B.ext("o", inner, B.var("OUTER"))
        assert make_join_rule_set().apply(expr) == expr
        plan = local_join_plan(expr)
        assert not _probes(plan)
        assert plan.body.source == A.Cached(subquery)

    def test_key_moves_in_front_of_a_filter_on_the_outer_row(self):
        key = B.eq(B.project(B.var("o"), "id"), B.project(B.var("i"), "ref"))
        own = B.prim("lt", B.project(B.var("i"), "ref"), B.const(5))
        mixed = B.prim("lt", B.project(B.var("i"), "ref"), B.project(B.var("o"), "id"))
        last = B.prim("lt", B.const(0), B.project(B.var("o"), "id"))

        def loop(*conditions):
            body = B.singleton(B.project(B.var("i"), "data"))
            for condition in reversed(conditions):
                body = B.if_then_else(condition, body, B.empty())
            return B.ext("o", B.ext("i", body, B.var("INNER")), B.var("OUTER"))

        stats = RewriteStats()
        moved = make_join_rule_set().apply(loop(own, mixed, key, last), stats)
        assert moved == loop(own, key, mixed, last)
        assert stats.firings == {"local-join": 1}
        # A filter on the inner row alone runs while the index is built:
        # nothing to move, and the decorrelation stage keys the loop as it is.
        assert make_join_rule_set().apply(loop(own, key, mixed)) == loop(own, key, mixed)
        assert len(_probes(local_join_plan(loop(own, key, mixed)))) == 1
        data = join_data()
        assert evaluate(loop(own, mixed, key, last), data) == \
            evaluate(local_join_plan(loop(own, mixed, key, last)), data)

    def test_join_rewrite_preserves_semantics(self):
        expr = nested_loop_join_expr()
        data = join_data()
        assert evaluate(expr, data) == evaluate(local_join_plan(expr), data)

    def test_correlated_inner_loop_is_not_rewritten(self):
        # The inner source depends on the outer variable: not a local join.
        inner = B.ext("i", B.singleton(B.var("i")), B.project(B.var("o"), "children"))
        expr = B.ext("o", inner, B.var("OUTER"))
        assert local_join_plan(expr) == expr

    def test_three_generators_probe_once_per_inner_generator(self):
        """A left-deep chain: each inner generator is a probe of its own index."""
        innermost = B.ext("c", B.if_then_else(
            B.eq(B.project(B.var("c"), "ref"), B.project(B.var("i"), "ref")),
            B.singleton(B.project(B.var("c"), "data")), B.empty()), B.var("THIRD"))
        middle = B.ext("i", B.if_then_else(
            B.eq(B.project(B.var("o"), "id"), B.project(B.var("i"), "ref")),
            innermost, B.empty()), B.var("INNER"))
        expr = B.ext("o", middle, B.var("OUTER"))
        plan = local_join_plan(expr)
        # (a loop's body is walked before its source: innermost probe first)
        assert [probe.args[1] for probe in _probes(plan)] == [
            B.project(B.var("i"), "ref"), B.project(B.var("o"), "id")]
        data = dict(join_data(), THIRD=join_data()["INNER"])
        assert evaluate(expr, data) == evaluate(plan, data)
        assert len(evaluate(plan, data)) == 30

    def test_probe_plan_touches_far_fewer_rows_than_the_nested_loop(self):
        expr = nested_loop_join_expr()
        data = join_data(outer_size=50, inner_size=50)

        plain_context = EvalContext()
        Evaluator(plain_context).evaluate(expr, _env(data))
        join_context = EvalContext()
        Evaluator(join_context).evaluate(local_join_plan(expr), _env(data))
        # Outer rows + rows indexed once + matched pairs (ids 0-9, five each).
        assert join_context.statistics.ext_iterations == 50 + 50 + 50
        assert plain_context.statistics.ext_iterations == 50 + 50 * 50


def _subterms(expr):
    yield expr
    for child in expr.children():
        yield from _subterms(child)


def _env(data):
    from repro.core.nrc.eval import Environment

    return Environment(dict(data))


class TestCachingRuleSet:
    def _loop_with_inner_scan(self):
        inner = B.ext("y", B.singleton(B.var("y")), A.Scan("SRC", {"table": "t"}))
        return B.ext("x", inner, B.var("OUTER"))

    def test_independent_inner_loop_is_cached_whole(self):
        # Neither the scan nor the loop over it mentions ``x``: the maximal
        # independent subterm is the inner loop, and it is wrapped once.
        rewritten = make_caching_rule_set().apply(self._loop_with_inner_scan())
        assert isinstance(rewritten.body, A.Cached)
        assert "cached" not in rewritten.body.expr.pretty()

    def test_independent_source_of_a_dependent_loop_is_cached(self):
        inner = B.ext("y", B.singleton(B.record(x=B.var("x"), y=B.var("y"))),
                      A.Scan("SRC", {"table": "t"}))
        rewritten = make_caching_rule_set().apply(B.ext("x", inner, B.var("OUTER")))
        assert isinstance(rewritten.body.source, A.Cached)

    def test_dependent_source_is_not_cached(self):
        scan = A.Scan("SRC", {"table": "t"}, {"key": B.project(B.var("x"), "id")})
        inner = B.ext("y", B.singleton(B.var("y")), scan)
        expr = B.ext("x", inner, B.var("OUTER"))
        rewritten = make_caching_rule_set().apply(expr)
        assert not isinstance(rewritten.body.source, A.Cached)

    def test_source_depending_on_intermediate_binder_is_not_cached(self):
        """Regression: dependence on *any* enclosing loop variable blocks caching."""
        scan = A.Scan("SRC", {"table": "t"}, {"key": B.project(B.var("m"), "id")})
        innermost = B.ext("y", B.singleton(B.record(x=B.var("x"), y=B.var("y"))), scan)
        middle = B.ext("m", innermost, B.var("MIDDLE"))
        expr = B.ext("x", middle, B.var("OUTER"))
        rewritten = make_caching_rule_set().apply(expr)
        assert "cached" not in rewritten.pretty()

    def test_loop_over_an_intermediate_binder_is_cached_around_it(self):
        """... while a subquery that binds the variable it depends on is
        independent as a whole, and is cached as a whole."""
        scan = A.Scan("SRC", {"table": "t"}, {"key": B.project(B.var("m"), "id")})
        middle = B.ext("m", B.ext("y", B.singleton(B.var("y")), scan), B.var("MIDDLE"))
        rewritten = make_caching_rule_set().apply(B.ext("x", middle, B.var("OUTER")))
        assert rewritten.pretty().count("cached") == 1
        assert isinstance(rewritten.body, A.Cached)

    def test_loop_free_subterms_are_not_cached(self):
        # A bound collection is a value already; so is arithmetic on names.
        head = B.record(x=B.var("x"), y=B.var("y"), n=B.prim("add", B.var("N"), B.const(1)))
        inner = B.ext("y", B.singleton(head), B.var("SMALL"))
        expr = B.ext("x", inner, B.var("OUTER"))
        assert make_caching_rule_set().apply(expr) == expr

    def _correlated(self, *conditions, kind="bag"):
        body = B.singleton(B.project(B.var("y"), "v"), kind)
        for condition in reversed(conditions):
            body = A.IfThenElse(condition, body, A.Empty(kind))
        return B.ext("x", B.singleton(B.record(x=B.var("x"), ys=B.ext(
            "y", body, B.var("S"), kind)), kind), B.var("OUTER"), kind)

    def test_correlated_loop_probes_an_index_built_under_the_row_filters(self):
        key = B.eq(B.project(B.var("x"), "k"), B.project(B.var("y"), "k"))
        before = B.prim("gt", B.project(B.var("y"), "v"), B.const(1))
        after = B.prim("lt", B.project(B.var("y"), "v"), B.project(B.var("x"), "k"))
        stats = RewriteStats()
        rewritten = make_caching_rule_set().apply(self._correlated(before, key, after), stats)
        assert stats.firings == {"index-correlated-loop": 1}
        probed = rewritten.body.expr.fields["ys"]
        assert probed.pretty() == (
            "U{|if lt(y.v, x.k) then {|y.v|} else {||} | \\y <- "
            "probe(cached(index(S by \\y => y.k where gt(y.v, 1))), x.k)|}")
        # Underneath: nodes that were there before, and three primitives.
        source = probed.source
        assert isinstance(source, A.Let) and isinstance(source.value, A.Cached)
        names = {node.name for node in _subterms(source) if isinstance(node, A.PrimCall)}
        assert {"index", "isempty", "probe"} <= names
        data = {"OUTER": CBag([Record({"k": k}) for k in (1, 2, 3, 3)]),
                "S": CBag([Record({"k": i % 4, "v": i % 3}) for i in range(12)])}
        assert evaluate(rewritten, data) == evaluate(self._correlated(before, key, after), data)

    def test_loop_without_a_usable_equality_is_not_indexed(self):
        both = B.eq(B.project(B.var("y"), "k"), B.project(B.var("y"), "v"))
        mixed = B.eq(B.prim("add", B.project(B.var("y"), "k"), B.project(B.var("x"), "k")),
                     B.const(3))
        ordered = B.prim("lt", B.project(B.var("y"), "k"), B.project(B.var("x"), "k"))
        key = B.eq(B.project(B.var("x"), "k"), B.project(B.var("y"), "k"))
        for conditions in ((both,), (mixed,), (ordered,), (ordered, key), ()):
            stats = RewriteStats()
            make_caching_rule_set().apply(self._correlated(*conditions), stats)
            assert stats.fired("index-correlated-loop") == 0

    def _aggregate_loop(self, aggregate, key, *more, inner=None):
        """``{[n = aggregate({y.v | \\y <- S, key, more..}), ..] | \\x <- OUTER}``"""
        body = B.singleton(B.project(B.var("y"), "v"))
        for condition in reversed((key,) + more):
            body = A.IfThenElse(condition, body, A.Empty("set"))
        subquery = B.ext("y", body, B.var("S") if inner is None else inner)
        return B.ext("x", B.singleton(B.record(n=B.prim(aggregate, subquery))),
                     B.var("OUTER"))

    def test_a_correlated_aggregate_is_memoized_by_the_projections_it_reads(self):
        key = B.eq(B.project(B.var("y"), "k"), B.project(B.var("x"), "k"))
        second = B.eq(B.project(B.var("y"), "j"), B.project(B.var("x"), "j"))
        data = {"OUTER": CBag([Record({"k": k, "j": k % 2}) for k in (1, 2, 3, 3, 1)]),
                "S": CBag([Record({"k": i % 4, "j": i % 2, "v": i}) for i in range(12)])}
        for name in ("count", "sum", "max"):
            expr = self._aggregate_loop(name, key, second)
            stats = RewriteStats()
            rewritten = make_caching_rule_set().apply(expr, stats)
            assert stats.firings == {"index-correlated-loop": 1,
                                     "memoize-correlated-aggregate": 1}
            memo = rewritten.body.expr.fields["n"]
            assert type(memo) is A.Memo and memo.expr.name == name
            # In the order the rewritten aggregate reads them (a loop's body
            # comes before its source, the probe).
            assert memo.keys == (B.project(B.var("x"), "j"), B.project(B.var("x"), "k"))
            assert memo.pretty().startswith(f"memo[x.j, x.k]({name}(")
            # Applied once: optimizing the plan again finds nothing to do.
            again = RewriteStats()
            assert make_caching_rule_set().apply(rewritten, again) == rewritten
            assert again.firings == {}
            context = EvalContext()
            assert Evaluator(context).evaluate(rewritten, _env(data)) == \
                evaluate(expr, data)
            # Three distinct (j, k) keys among five rows: the memo misses
            # three times and hits twice; the index is built by the first
            # miss and found by the other two.
            statistics = context.statistics
            assert (statistics.cache_misses, statistics.cache_hits) == (3 + 1, 2 + 2)

    def test_one_aggregate_keyed_by_other_projections_is_another_memo(self):
        """The same aggregate text under ``\\p <- PS`` (``o`` a bound name)
        and under ``\\o <- OS`` (``p`` a bound name) is keyed by ``p.j`` in one
        place and by ``o.k`` in the other: equal key values must not share."""
        def aggregate():
            body = B.singleton(B.var("y"), "bag")
            for condition in reversed([
                    B.eq(B.project(B.var("y"), "k"), B.project(B.var("o"), "k")),
                    B.eq(B.project(B.var("y"), "j"), B.project(B.var("p"), "j"))]):
                body = A.IfThenElse(condition, body, A.Empty("bag"))
            return B.prim("count", B.ext("y", body, B.var("S"), "bag"))

        expr = A.Union(
            B.ext("p", B.singleton(B.record(n=aggregate()), "bag"), B.var("PS"), "bag"),
            B.ext("o", B.singleton(B.record(n=aggregate()), "bag"), B.var("OS"), "bag"),
            "bag")
        plan = make_caching_rule_set().apply(expr)
        first, second = [node for node in _subterms(plan) if type(node) is A.Memo]
        assert term_fingerprint(first.expr) == term_fingerprint(second.expr)
        assert first.keys != second.keys
        assert first.key != second.key
        data = {"o": Record({"k": 1}), "p": Record({"j": 2}),
                "PS": CBag([Record({"j": 1})]), "OS": CBag([Record({"k": 1})]),
                "S": CBag([Record({"k": 1, "j": 1})])}
        assert evaluate(plan, data) == evaluate(expr, data) == \
            CBag([Record({"n": 1}), Record({"n": 0})])

    def test_a_binder_read_whole_is_not_memoized(self):
        """``probe(i, x)``: the aggregate reads ``x`` itself, not a field."""
        stats = RewriteStats()
        expr = self._aggregate_loop("count", B.eq(B.project(B.var("y"), "k"), B.var("x")))
        rewritten = make_caching_rule_set().apply(expr, stats)
        assert stats.firings == {"index-correlated-loop": 1}
        assert "probe(" in rewritten.pretty() and "memo[" not in rewritten.pretty()

    def test_an_aggregate_whose_only_loop_is_cached_is_not_memoized(self):
        """``member(x.k, cached(...))``: nothing per row is worth a memo."""
        keys = B.ext("y", B.singleton(B.project(B.var("y"), "k")), B.var("S"))
        guard = B.prim("member", B.project(B.var("x"), "k"), keys)
        aggregate = B.prim("count", A.IfThenElse(guard, B.singleton(B.const(1)),
                                                 A.Empty("set")))
        expr = B.ext("x", B.singleton(B.record(n=aggregate)), B.var("OUTER"))
        stats = RewriteStats()
        rewritten = make_caching_rule_set().apply(expr, stats)
        assert stats.firings == {"hoist-loop-invariant": 1}
        assert "member(x.k, cached(" in rewritten.pretty()
        assert "memo[" not in rewritten.pretty()

    def test_cached_scan_is_fetched_once(self):
        calls = []

        def executor(driver, request):
            calls.append(request)
            return CSet([1, 2, 3])

        expr = self._loop_with_inner_scan()
        rewritten = make_caching_rule_set().apply(expr)
        context = EvalContext(driver_executor=executor)
        Evaluator(context).evaluate(rewritten, _env({"OUTER": CSet(range(5))}))
        assert len(calls) == 1

    def test_top_level_source_is_not_cached(self):
        # The outermost loop's source is evaluated exactly once; caching it
        # would only obscure the plan.
        expr = B.ext("x", B.singleton(B.project(B.var("x"), "a")), A.Scan("SRC", {"table": "t"}))
        assert make_caching_rule_set().apply(expr) == expr

    def test_source_depending_on_outermost_binder_is_not_cached(self):
        """Regression: the rule must see *all* enclosing binders, not just the
        loop it happens to fire on — a deeply nested source depending on the
        outermost loop variable must stay uncached."""
        scan = A.Scan("SRC", {"table": "t"}, {"key": B.project(B.var("x"), "id")})
        innermost = B.ext("y", B.singleton(B.var("y")), scan)
        middle = B.ext("m", innermost, B.var("MIDDLE"))
        expr = B.ext("x", middle, B.var("OUTER"))
        assert "cached" not in make_caching_rule_set().apply(expr).pretty()

    def test_join_inner_depending_on_enclosing_loop_is_not_cached(self):
        """Regression for the mapsearch bug: a join nested in an outer loop
        whose inner scan depends on the outer loop variable must not be cached
        (caching froze the first accession's GenBank result for every locus)."""
        dependent_scan = A.Scan("GenBank", {"db": "na"},
                                {"select": B.project(B.var("outer_rec"), "genbank_ref")})
        join = B.ext("o", B.if_then_else(
            B.eq(B.project(B.var("o"), "id"), B.const(1)),
            B.ext("i", B.singleton(B.var("i")), dependent_scan), B.empty()), B.var("CYTO"))
        expr = B.ext("outer_rec", join, A.Scan("GDB", {"table": "object_genbank_eref"}))
        rewritten = make_caching_rule_set().apply(expr)
        assert "cached(scan[GenBank]" not in rewritten.pretty()

    def test_join_inner_independent_of_all_loops_is_cached(self):
        independent_scan = A.Scan("GenBank", {"db": "na", "select": "fixed"})
        inner = B.ext("i", B.singleton(B.var("i")), independent_scan)
        expr = B.ext("outer_rec", B.ext("o", inner, B.var("CYTO")),
                     A.Scan("GDB", {"table": "locus"}))
        rewritten = make_caching_rule_set().apply(expr)
        # The join mentions no binder of the loop around it: it is hoisted
        # whole; inside it the inner loop is the build side, hoisted whole
        # in turn, so the scan needs no Cached of its own.
        assert rewritten.body == A.Cached(B.ext("o", A.Cached(inner), B.var("CYTO")))
        assert "cached(scan[GenBank]" not in rewritten.pretty()
        calls = []

        def executor(driver, request):
            calls.append(driver)
            return CSet([1, 2, 3])

        context = EvalContext(driver_executor=executor)
        Evaluator(context).evaluate(rewritten, _env({"CYTO": CSet(range(4))}))
        assert calls.count("GenBank") == 1

    def test_dependent_pushdown_query_keeps_its_answer(self, integrated_session):
        """End-to-end regression: optimized and unoptimized answers agree for a
        query whose trailing generator calls a driver with a variable bound by
        an earlier generator (the mapsearch shape)."""
        integrated_session.run(
            'define ASN-IDs == \\accession => GenBank([db = "na", '
            'select = "accession " ^ accession, path = "Seq-entry.seq.id..giim"])')
        query = ('{[ref = y, id = uid] | '
                 '[genbank_ref = \\y, object_class_key = 1, ...] <- GDB-Tab("object_genbank_eref"), '
                 '[loc_cyto_chrom_num = "22", ...] <- GDB-Tab("locus_cyto_location"), '
                 '\\uid <- ASN-IDs(y)}')
        optimized = integrated_session.run(query, optimize=True)
        unoptimized = integrated_session.run(query, optimize=False)
        assert optimized == unoptimized
        assert len(optimized) > 0


class TestParallelRuleSet:
    def _remote_loop(self):
        scan = A.Scan("REMOTE", {"db": "na"}, {"select": B.project(B.var("x"), "acc")})
        body = B.singleton(B.record(acc=B.project(B.var("x"), "acc"),
                                    hits=B.prim("count", scan)))
        return B.ext("x", body, B.var("OUTER"))

    def test_remote_dependent_loop_becomes_parallel(self):
        rule_set = make_parallel_rule_set(lambda driver: driver == "REMOTE", max_workers=3)
        rewritten = rule_set.apply(self._remote_loop())
        assert isinstance(rewritten, ParallelExt)
        assert rewritten.max_workers == 3

    def test_local_driver_loop_stays_sequential(self):
        rule_set = make_parallel_rule_set(lambda driver: False)
        assert not isinstance(rule_set.apply(self._remote_loop()), ParallelExt)

    def test_parallel_ext_preserves_semantics(self):
        def executor(driver, request):
            return CSet([request["select"], request["select"] * 2])

        expr = self._remote_loop()
        parallel = make_parallel_rule_set(lambda d: True, max_workers=4).apply(expr)
        data = {"OUTER": CSet([Record({"acc": i}) for i in range(1, 9)])}
        sequential_value = Evaluator(EvalContext(driver_executor=executor)).evaluate(
            expr, _env(data))
        parallel_value = Evaluator(EvalContext(driver_executor=executor)).evaluate(
            parallel, _env(data))
        assert sequential_value == parallel_value

    def test_parallel_loop_never_exceeds_server_cap(self):
        from repro.net.remote import RemoteSource

        server = RemoteSource("S", lambda request: CSet([request["select"]]),
                              latency=0.005, max_concurrent_requests=3)

        def executor(driver, request):
            return server.call(request)

        parallel = make_parallel_rule_set(lambda d: True, max_workers=3).apply(self._remote_loop())
        data = {"OUTER": CSet([Record({"acc": i}) for i in range(12)])}
        Evaluator(EvalContext(driver_executor=executor)).evaluate(parallel, _env(data))
        assert server.log.max_concurrency() <= 3
        assert server.request_count == 12


class TestBlockedJoinPlan:
    """A join without a key is the loop it was written as over an inner side
    computed once: ``execute`` and ``stream`` share the one plan."""

    def test_hoisted_inner_preserves_semantics(self):
        condition = B.prim("lt", B.project(B.var("o"), "id"),
                           B.project(B.var("i"), "ref"))
        head = B.record(n=B.project(B.var("o"), "name"),
                        d=B.project(B.var("i"), "data"))
        subquery = B.ext("s", B.singleton(B.var("s")), B.var("INNER"))
        inner = B.ext("i", B.if_then_else(condition, B.singleton(head),
                                          B.empty()), subquery)
        expr = B.ext("o", inner, B.var("OUTER"))
        plan = local_join_plan(expr)
        assert isinstance(plan.body.source, A.Cached)
        data = join_data()
        assert evaluate(expr, data) == evaluate(plan, data)

    def test_hoisted_inner_side_is_fetched_once(self):
        """The inner side is materialised once however many outer rows there
        are — in all three backends."""
        from repro.core.values import CList
        from repro.kleisli.drivers.base import Driver
        from repro.kleisli.engine import KleisliEngine

        class InnerDriver(Driver):
            def __init__(self):
                super().__init__("inner")

            def _execute(self, request):
                return CList(range(5))

        def blocked_join():
            inner = A.Cached(A.Scan("inner", {"table": "t"}, kind="list"))
            return B.ext("o", B.ext("i", B.if_then_else(
                B.prim("lt", B.var("o"), B.var("i")),
                B.singleton(B.var("o"), "list"), B.empty("list")), inner, "list"),
                B.var("OUTER"), "list")

        outer = CList(range(10))
        for mode in ("interpret", "compiled"):
            engine = KleisliEngine()
            engine.register_driver(InnerDriver())
            engine.execute(blocked_join(), {"OUTER": outer},
                           optimize=False, mode=mode)
            assert engine.last_eval_statistics.scan_requests == 1, mode
            engine = KleisliEngine()
            engine.register_driver(InnerDriver())
            list(engine.stream(blocked_join(), {"OUTER": outer},
                               optimize=False, mode=mode))
            assert engine.last_eval_statistics.scan_requests == 1, \
                f"stream/{mode}"
