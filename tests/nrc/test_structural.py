"""Structural recursion: the Fold node, CPL's ``fold`` special form, and the
derived operations (transitive closure, nest/unnest, well-definedness checks).

Section 2 of the paper: comprehension syntax is derived from structural
recursion, which "allows the expression of aggregate functions such as
summation, as well as functions such as transitive closure, that cannot be
expressed through comprehensions alone."
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import CPLTypeError, EvaluationError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.eval import EvalContext, EvalStatistics, Evaluator, evaluate
from repro.core.nrc.structural import (
    check_fold_well_defined,
    fold_value,
    group_by,
    is_duplicate_insensitive,
    is_order_insensitive,
    nest,
    transitive_closure,
    unnest,
)
from repro.core.cpl.typecheck import infer_expression_type
from repro.core.types import parse_type
from repro.core.values import CBag, CList, CSet, Record
from repro.kleisli.session import Session


def _sum_fold(source_expr):
    """fold(\\a => \\x => a + x, 0, source)"""
    combiner = B.lam("a", B.lam("x", B.prim("add", B.var("a"), B.var("x"))))
    return B.fold(combiner, B.const(0), source_expr)


class TestFoldNode:
    def test_fold_sums_a_set(self):
        expr = _sum_fold(B.var("nums"))
        assert evaluate(expr, {"nums": CSet([1, 2, 3, 4])}) == 10

    def test_fold_over_list_respects_order(self):
        # String accumulation over a list is order-dependent and well defined.
        combiner = B.lam("a", B.lam("x", B.prim("string_concat", B.var("a"), B.var("x"))))
        expr = B.fold(combiner, B.const(""), B.var("xs"))
        assert evaluate(expr, {"xs": CList(["a", "b", "c"])}) == "abc"

    def test_fold_over_empty_collection_returns_init(self):
        assert evaluate(_sum_fold(B.empty("set"))) == 0

    def test_fold_counts_iterations(self):
        from repro.core.nrc.eval import Environment

        stats = EvalStatistics()
        evaluator = Evaluator(EvalContext(statistics=stats))
        evaluator.evaluate(_sum_fold(B.var("nums")), Environment({"nums": CSet([5, 6, 7])}))
        assert stats.fold_iterations == 3

    def test_fold_with_native_python_combiner(self):
        expr = B.fold(B.var("f"), B.const(0), B.var("nums"))
        value = evaluate(expr, {"f": lambda a: (lambda x: max(a, x)),
                                "nums": CBag([3, 9, 1])})
        assert value == 9

    def test_fold_over_non_collection_fails(self):
        with pytest.raises(EvaluationError):
            evaluate(_sum_fold(B.const(3)))

    def test_fold_structural_equality_and_rebuild(self):
        expr = _sum_fold(B.var("nums"))
        same = _sum_fold(B.var("nums"))
        assert expr == same and hash(expr) == hash(same)
        rebuilt = expr.rebuild(list(expr.children()))
        assert rebuilt == expr

    def test_fold_free_variables_and_substitution(self):
        expr = _sum_fold(B.var("nums"))
        assert "nums" in A.free_variables(expr)
        replaced = A.substitute(expr, "nums", B.var("other"))
        assert "other" in A.free_variables(replaced)
        assert "nums" not in A.free_variables(replaced)

    def test_fold_pretty_printer(self):
        text = _sum_fold(B.var("nums")).pretty()
        assert text.startswith("fold(") and "nums" in text


class TestFoldInCPL:
    def test_fold_sum_from_cpl(self):
        session = Session()
        session.bind("Nums", {1, 2, 3, 4, 5})
        assert session.run(r"fold(\a => \x => a + x, 0, Nums)") == 15

    def test_fold_can_express_count(self):
        session = Session()
        session.bind("Nums", {10, 20, 30})
        assert session.run(r"fold(\a => \x => a + 1, 0, Nums)") == 3

    def test_fold_builds_collections_too(self):
        session = Session()
        session.bind("Nums", [1, 2, 3], list_as="list")
        value = session.run(r"fold(\a => \x => a + x * x, 0, Nums)")
        assert value == 14

    def test_fold_inside_define(self):
        session = Session()
        session.bind("DB", [{"title": "A", "year": 2}, {"title": "B", "year": 3}],
                     list_as="set")
        session.run(r"define total-years == fold(\a => \p => a + p.year, 0, DB)")
        assert session.run("total-years") == 5

    def test_fold_type_inference(self):
        ty = infer_expression_type(r"fold(\a => \x => a + x, 0, DB)",
                                   {"DB": parse_type("{int}")})
        assert str(ty) == "int"

    def test_fold_type_mismatch_is_an_error(self):
        with pytest.raises(CPLTypeError):
            infer_expression_type(r'fold(\a => \x => a + x, "zero", DB)',
                                  {"DB": parse_type("{int}")})

    def test_user_defined_fold_name_shadows_special_form(self):
        # A user binding named ``fold`` takes precedence in the type checker
        # (the special form only applies to the unbound name).
        ty = infer_expression_type("fold", {"fold": parse_type("int")})
        assert str(ty) == "int"


class TestWellDefinedness:
    def test_sum_is_well_defined_on_bags_but_flagged_on_sets(self):
        # Structural recursion theory ([6], [5]): a bag fold needs a
        # commutative combiner; a *set* fold additionally needs idempotence.
        # Addition is commutative but not idempotent, so summing is fine over
        # bags and flagged over sets.
        add = lambda a, x: a + x
        assert is_order_insensitive(add, 0, [1, 2, 3])
        assert check_fold_well_defined(add, 0, CBag([1, 2, 3])) == []
        issues = check_fold_well_defined(add, 0, CSet([1, 2, 3]))
        assert any("duplicate" in issue for issue in issues)

    def test_list_folds_are_always_well_defined(self):
        concat = lambda a, x: a + x
        assert check_fold_well_defined(concat, "", CList(["a", "b"])) == []

    def test_order_sensitive_fold_is_flagged_on_bags(self):
        concat = lambda a, x: a + x
        issues = check_fold_well_defined(concat, "", CBag(["a", "b"]))
        assert any("order" in issue for issue in issues)

    def test_duplicate_sensitive_fold_is_flagged_on_sets(self):
        count = lambda a, x: a + 1
        assert not is_duplicate_insensitive(count, 0, [1, 2])
        issues = check_fold_well_defined(count, 0, CSet([1, 2]))
        assert any("duplicate" in issue for issue in issues)

    def test_max_is_duplicate_insensitive(self):
        assert is_duplicate_insensitive(max, 0, [4, 2, 9])

    @given(st.lists(st.integers(min_value=-100, max_value=100), max_size=8))
    def test_fold_value_sum_matches_python_sum(self, numbers):
        assert fold_value(lambda a, x: a + x, 0, CList(numbers)) == sum(numbers)

    @given(st.sets(st.integers(min_value=-50, max_value=50), max_size=8))
    def test_set_fold_with_commutative_idempotent_combiner_never_flagged(self, numbers):
        # max is both commutative and idempotent, so it is a well-defined set fold.
        assert check_fold_well_defined(max, -1000, CSet(numbers)) == []


class TestTransitiveClosure:
    def _edges(self, pairs):
        return CSet([Record({"src": a, "dst": b}) for a, b in pairs])

    def test_chain_is_closed(self):
        closure = transitive_closure(self._edges([("a", "b"), ("b", "c"), ("c", "d")]))
        reached = {(r.project("src"), r.project("dst")) for r in closure}
        assert ("a", "d") in reached and ("b", "d") in reached
        assert len(reached) == 6

    def test_cycle_terminates(self):
        closure = transitive_closure(self._edges([("a", "b"), ("b", "a")]))
        reached = {(r.project("src"), r.project("dst")) for r in closure}
        assert reached == {("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")}

    def test_labels_are_preserved(self):
        closure = transitive_closure(
            CSet([Record({"contains": "chr22", "part": "band11"}),
                  Record({"contains": "band11", "part": "locusX"})]))
        assert all(set(r.labels) == {"contains", "part"} for r in closure)
        reached = {(r.project("contains"), r.project("part")) for r in closure}
        assert ("chr22", "locusX") in reached

    def test_pair_lists_are_accepted(self):
        closure = transitive_closure(CSet([CList(["a", "b"]), CList(["b", "c"])]))
        assert CList(["a", "c"]) in closure

    def test_closure_is_idempotent(self):
        edges = self._edges([("a", "b"), ("b", "c")])
        once = transitive_closure(edges)
        twice = transitive_closure(once)
        assert once == twice

    def test_via_cpl_primitive(self):
        session = Session()
        session.bind("Links", CSet([Record({"src": "u1", "dst": "u2"}),
                                    Record({"src": "u2", "dst": "u3"})]))
        closure = session.run("tclosure(Links)")
        assert Record({"src": "u1", "dst": "u3"}) in closure

    def test_bad_arity_record_rejected(self):
        with pytest.raises(EvaluationError):
            transitive_closure(CSet([Record({"a": 1, "b": 2, "c": 3})]))

    def test_non_collection_rejected(self):
        with pytest.raises(EvaluationError):
            transitive_closure(42)

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10))
    def test_closure_contains_original_edges_and_is_transitive(self, pairs):
        closure = transitive_closure(CSet([CList([a, b]) for a, b in pairs]))
        reached = {(edge[0], edge[1]) for edge in closure}
        assert set(pairs) <= reached
        for a, b in reached:
            for c, d in reached:
                if b == c:
                    assert (a, d) in reached


class TestNestUnnest:
    def _flat(self):
        return CSet([
            Record({"title": "T1", "keyword": "Exons"}),
            Record({"title": "T1", "keyword": "Genes"}),
            Record({"title": "T2", "keyword": "Exons"}),
        ])

    def test_nest_groups_by_field(self):
        nested = nest(self._flat(), "titles", "keyword")
        by_keyword = {r.project("keyword"): r.project("titles") for r in nested}
        assert Record({"title": "T1"}) in by_keyword["Exons"]
        assert Record({"title": "T2"}) in by_keyword["Exons"]
        assert len(by_keyword["Genes"]) == 1

    def test_unnest_inverts_nest_up_to_set_equality(self):
        flat = self._flat()
        assert unnest(nest(flat, "grouped", "title"), "grouped") == flat

    def test_nest_requires_records(self):
        with pytest.raises(EvaluationError):
            nest(CSet([1, 2]), "group", "key")

    def test_nest_requires_grouping_fields(self):
        with pytest.raises(EvaluationError):
            nest(self._flat(), "group")

    def test_group_by_key_function(self):
        groups = group_by(CList([1, 2, 3, 4, 5]), lambda n: n % 2)
        assert groups[0] == [2, 4] and groups[1] == [1, 3, 5]

    def test_nest_unnest_from_cpl(self):
        session = Session()
        session.bind("Flat", self._flat())
        nested = session.run('nest(Flat, "titles", "keyword")')
        assert len(nested) == 2
        flat_again = session.run('unnest(nest(Flat, "titles", "keyword"), "titles")')
        assert flat_again == self._flat()

    def test_keyword_inversion_example_matches_comprehension(self):
        """The paper's keyword-inversion restructuring, once via comprehension,
        once via the nest operator: same answer."""
        session = Session()
        session.bind("DB", CSet([
            Record({"title": "P1", "keywd": CSet(["Exons", "Genes"])}),
            Record({"title": "P2", "keywd": CSet(["Exons"])}),
        ]))
        by_comprehension = session.run(
            "{[keyword = k, titles = {x.title | \\x <- DB, k <- x.keywd}] |"
            " \\y <- DB, \\k <- y.keywd}")
        flattened = session.run(
            "{[title = t, keyword = k] | [title = \\t, keywd = \\kk, ...] <- DB, \\k <- kk}")
        by_nest = nest(flattened, "titles", "keyword")
        as_dict = {r.project("keyword"): CSet([t.project("title") for t in r.project("titles")])
                   for r in by_nest}
        expected = {r.project("keyword"): r.project("titles") for r in by_comprehension}
        assert as_dict == expected


class TestFoldRewriteRules:
    def test_fold_over_empty_normalises_to_init(self):
        from repro.core.nrc.rules_monadic import monadic_rule_set

        expr = _sum_fold(B.empty("set"))
        assert monadic_rule_set().apply(expr) == B.const(0)

    def test_fold_over_singleton_normalises_to_one_application(self):
        from repro.core.nrc.rules_monadic import monadic_rule_set

        expr = _sum_fold(B.singleton(B.const(7)))
        rewritten = monadic_rule_set().apply(expr)
        assert not isinstance(rewritten, A.Fold)
        assert evaluate(rewritten) == 7

    def test_rewriting_preserves_fold_meaning(self):
        from repro.core.nrc.rules_monadic import monadic_rule_set

        expr = _sum_fold(B.union(B.singleton(B.const(1)),
                                 B.union(B.singleton(B.const(2)), B.singleton(B.const(3)))))
        rewritten = monadic_rule_set().apply(expr)
        assert evaluate(rewritten) == evaluate(expr) == 6

    def test_optimizer_pipeline_keeps_fold_queries_correct(self, integrated_session):
        query = (r'fold(\a => \x => a + 1, 0, '
                 r'{[s = l.locus_symbol] | \l <- GDB-Tab("locus")})')
        optimized = integrated_session.run(query, optimize=True)
        unoptimized = integrated_session.run(query, optimize=False)
        assert optimized == unoptimized
        assert optimized > 0

    def test_fold_combiner_sees_driver_rows(self, integrated_session):
        total_length = integrated_session.run(
            r'fold(\a => \e => a + e.seq.length, 0, '
            r'GenBank([db = "na", select = "chromosome 22"]))')
        assert total_length > 0


class TestStructuralProperties:
    @given(st.lists(st.tuples(st.sampled_from(["T1", "T2", "T3"]),
                              st.sampled_from(["Exons", "Genes", "Maps", "Bands"])),
                    max_size=12))
    def test_nest_unnest_round_trip(self, pairs):
        flat = CSet([Record({"title": title, "keyword": keyword}) for title, keyword in pairs])
        assert unnest(nest(flat, "grouped", "keyword"), "grouped") == flat

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=0, max_size=12))
    def test_cpl_fold_agrees_with_sum_primitive_on_lists(self, numbers):
        session = Session()
        session.bind("Xs", numbers, list_as="list")
        folded = session.run(r"fold(\a => \x => a + x, 0, Xs)")
        assert folded == sum(numbers)


class TestKindProof:
    """The static collection-kind inference the typed streaming union rests on.

    ``proven_collection_kind(term) == k`` must mean: whenever the term
    evaluates successfully, its value is the kind-``k`` collection class.
    A wrong "proven" would let the streaming backend skip ``union_like``'s
    run-time operand class check unsoundly, so these tests err strict.
    """

    def test_constructors_and_loops_prove_their_declared_kind(self):
        from repro.core.nrc.structural import proven_collection_kind

        cases = [
            (A.Empty("bag"), "bag"),
            (B.singleton(B.const(1), "list"), "list"),
            (B.ext("x", B.singleton(B.var("x")), B.var("S")), "set"),
            # A local join is the loop it is written as.
            (B.ext("o", B.ext("i", B.singleton(B.var("o"), "list"), B.var("I"), "list"),
                   B.var("O"), "list"), "list"),
        ]
        for expr, expected in cases:
            assert proven_collection_kind(expr) == expected, expr

    def test_externally_supplied_values_are_unproven(self):
        from repro.core.nrc.structural import proven_collection_kind

        unproven = [
            B.var("S"),                       # whatever is bound
            A.Const(CList([1, 2])),           # even a literal collection: the
                                              # prover dispatches on structure
            A.Scan("d", {"table": "t"}, kind="list"),  # driver controls class
            A.Cached(A.Empty("set"), key="k"),  # shared cache, not this term
            B.prim("count", B.var("S")),
            B.fold(B.var("f"), B.const(0), B.var("S")),
        ]
        for expr in unproven:
            assert proven_collection_kind(expr) is None, expr

    def test_union_is_proven_only_when_both_operands_agree(self):
        from repro.core.nrc.structural import proven_collection_kind

        proven = A.Union(A.Empty("list"), B.singleton(B.const(1), "list"), "list")
        assert proven_collection_kind(proven) == "list"
        half = A.Union(A.Empty("list"), B.var("S"), "list")
        assert proven_collection_kind(half) is None
        # A provable MISMATCH is unproven, not an error here: the streaming
        # lowering falls back to the eager union, which raises at run time
        # exactly like execute.
        mismatch = A.Union(A.Empty("bag"), A.Empty("list"), "list")
        assert proven_collection_kind(mismatch) is None

    def test_transparent_spine_propagates_the_proof(self):
        from repro.core.nrc.structural import proven_collection_kind

        let = A.Let("x", B.const(1), A.Empty("set"))
        assert proven_collection_kind(let) == "set"
        agreeing = B.if_then_else(B.var("c"), A.Empty("bag"), A.Empty("bag"))
        assert proven_collection_kind(agreeing) == "bag"
        disagreeing = B.if_then_else(B.var("c"), A.Empty("bag"), A.Empty("list"))
        assert proven_collection_kind(disagreeing) is None

    def test_ext_subclasses_need_their_own_prover(self):
        from repro.core.nrc.structural import proven_collection_kind
        from repro.core.optimizer.parallel import ParallelExt

        # ParallelExt registered one (parallel.py); an unregistered subclass
        # must stay unproven — exact-type dispatch, like the compilers.
        parallel = ParallelExt("x", B.singleton(B.var("x")), B.var("S"))
        assert proven_collection_kind(parallel) == "set"

        class UnregisteredExt(A.Ext):
            pass

        unknown = UnregisteredExt("x", B.singleton(B.var("x")), B.var("S"))
        assert proven_collection_kind(unknown) is None

    def test_nested_unions_prove_through(self):
        from repro.core.nrc.structural import proven_collection_kind

        nested = A.Union(
            A.Union(A.Empty("list"), B.singleton(B.const(1), "list"), "list"),
            B.ext("x", B.singleton(B.var("x"), "list"), B.var("S"), kind="list"),
            "list")
        assert proven_collection_kind(nested) == "list"
