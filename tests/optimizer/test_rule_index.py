"""The rule index cannot hide a firing.

A ``Rule`` may declare the node types it can match and a ``RuleSet`` then
offers it those nodes only.  The declaration is an index, not a switch: the
optimizer must reach the same term by the same firings as a reference that
tries every rule at every node.
"""

import copy
import itertools
import pathlib
import sys

import pytest

from repro.bio.chromosome22 import build_chromosome22
from repro.core.cpl.desugar import desugar_expression
from repro.core.cpl.parser import parse_expression
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.rewrite import RewriteEngine, RewriteStats, Rule, RuleSet
from repro.core.nrc.rules_monadic import MONADIC_RULES, monadic_rule_set

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "kleisli"))

from test_plan_shapes import (  # noqa: E402
    OneRequestPerTrip, _doe_session, _session_for, example, workloads)
from test_stream_differential import _engine, _shapes  # noqa: E402


def _undeclared(rule_set):
    """``rule_set`` with every declaration stripped: the same rules (behind
    ``Rule.apply``, which still refuses a node outside the declaration) are
    tried at every node of every pass, as before there was an index."""
    reference = copy.copy(rule_set)
    reference.rules = tuple(Rule(rule.name, rule.apply, rule.description)
                            for rule in rule_set.rules)
    reference._rules_by_type = {}
    assert all(rule.node_types is None for rule in reference.rules)
    return reference


def _rewrite(rule_sets, term, monkeypatch):
    # Both sides name their fresh binders from the same counter.
    monkeypatch.setattr(A, "_var_counter", itertools.count(10 ** 6))
    stats = RewriteStats()
    return RewriteEngine(rule_sets).rewrite(term, stats), stats


def _subterms(term):
    yield term
    for child in term.children():
        yield from _subterms(child)


def _cpl_terms():
    """(label, pipeline, term): the benchmark's queries under the pipelines
    their sessions built (drivers registered, statistics wired)."""
    relational = _session_for(workloads.build("local_relational", seed=22))
    union = _session_for(workloads.build("union_dedup", seed=22))
    adhoc_workload = workloads.build("adhoc_cold", seed=22, seconds=0.1)
    adhoc = _session_for(adhoc_workload)
    doe_data = build_chromosome22(
        locus_count=40, homologues_per_entry=1, sequence_length=60,
        publication_count=5, seed=22)
    doe = _doe_session(doe_data)
    parallel_doe = _doe_session(doe_data, OneRequestPerTrip)
    cases = [("join", relational, workloads.JOIN_QUERY),
             # The key stands behind a filter on both rows: the join stage's rule.
             ("join behind a mixed filter", relational,
              r'{[a = l.id, b = r.acc] | \l <- LOCI, \r <- REFS, r.cls < l.id, r.locus = l.id}'),
             ("aggregate", relational, workloads.AGGREGATE_QUERY),
             ("semi-join", relational, workloads.SEMIJOIN_QUERY),
             ("union_dedup", union, workloads.UNION_QUERY),
             ("DOE", doe, example.DOE_QUERY),
             ("DOE, one request per trip", parallel_doe, example.DOE_QUERY)]
    cases += [(f"adhoc {number}", adhoc, op.parts[0][1])
              for number, op in enumerate((adhoc_workload.warmup + adhoc_workload.ops)[:10])]
    return [(label, session.engine.optimizer,
             session._expand(desugar_expression(parse_expression(text))))
            for label, session, text in cases]


@pytest.fixture(scope="module")
def terms():
    shapes = [(label, _engine().optimizer, expr) for label, expr, _ in _shapes()]
    return shapes + _cpl_terms()


def test_declared_and_undeclared_pipelines_agree_on_terms_and_firings(terms, monkeypatch):
    fired = RewriteStats()
    for label, pipeline, term in terms:
        rule_sets = pipeline.engine.rule_sets
        optimized, stats = _rewrite(rule_sets, term, monkeypatch)
        expected, reference = _rewrite([_undeclared(rs) for rs in rule_sets], term, monkeypatch)
        assert optimized == expected, label
        assert (stats.firings, stats.passes) == (reference.firings, reference.passes), label
        fired.merge(stats)
    # The comparison is about something: every stage fired somewhere.
    assert {"R1-vertical-fusion", "R4-projection-reduction", "beta-reduction",
            "ext-union-source", "ext-singleton-body", "driver-introduction",
            "sql-join-pushdown", "local-join", "hoist-loop-invariant",
            "index-correlated-loop", "bind-join-hoist", "bind-join-unnest",
            "parallel-remote-loop"} <= set(fired.firings)
    assert len(terms) >= 50


#: What each rule declares.  Narrowing an entry hides firings; this is the diff
#: to read when one changes.
DECLARED = {
    "beta-reduction": A.Apply, "let-inline": A.Let, "case-of-variant": A.Case,
    "R4-projection-reduction": A.Project, "if-constant": A.IfThenElse,
    "ext-empty-source": A.Ext, "ext-empty-body": A.Ext, "ext-filtered-source": A.Ext,
    "ext-singleton-source": A.Ext, "ext-singleton-body": A.Ext, "ext-union-source": A.Ext,
    "union-empty": A.Union, "fold-empty-source": A.Fold, "fold-singleton-source": A.Fold,
    "R1-vertical-fusion": A.Ext, "R3-filter-promotion": A.Ext,
    "R2-horizontal-fusion": A.Union,
    "driver-introduction": A.Apply, "sql-join-pushdown": A.Ext, "sql-select-pushdown": A.Ext,
    "asn1-path-pushdown": A.Ext, "local-join": A.Ext, "bind-join-hoist": A.Ext,
    "bind-join-unnest": A.Ext, "parallel-remote-loop": A.Ext,
    # Documentation only: ``_ScopedCachingRuleSet`` applies them in its own walk.
    "hoist-loop-invariant": None, "index-correlated-loop": None,
    "memoize-correlated-aggregate": None,
}


def test_the_declarations_are_the_pinned_ones_and_the_index_honours_them(terms):
    seen = {}
    for label, pipeline, term in terms:
        nodes = list(_subterms(term))
        for rule_set in pipeline.engine.rule_sets:
            for rule in rule_set.rules:
                seen[rule.name] = rule.node_types
                for node in nodes:
                    offered = rule in rule_set._rules_for(type(node))
                    if rule.node_types is None or isinstance(node, rule.node_types):
                        assert offered, (rule.name, type(node).__name__)
                    else:
                        # Outside its declaration a rule is not offered the
                        # node, and asked directly it does not match it.
                        assert not offered and rule.apply(node) is None, (
                            rule.name, type(node).__name__)
    assert seen == DECLARED
    assert [rule.name for rule in MONADIC_RULES] == list(DECLARED)[:17]


class Mystery(A.Ext):
    """An ``Ext`` subclass no rule has heard of."""


class TestTheIndexIsNotASwitch:
    def test_a_subclass_is_offered_its_base_class_rules(self):
        loop = Mystery("x", B.singleton(B.var("x")), A.Empty("set"), "set")
        stats = RewriteStats()
        assert monadic_rule_set().apply(loop, stats) == A.Empty("set")
        assert stats.firings == {"ext-empty-source": 1}
        names = [rule.name for rule in monadic_rule_set()._rules_for(Mystery)]
        assert names == [rule.name for rule in MONADIC_RULES if rule.node_types is A.Ext]

    def test_add_rule_after_first_use_is_honoured(self):
        rule_set = RuleSet("late", [MONADIC_RULES[0]])
        term = B.prim("add", B.const(1), B.const(2))
        assert rule_set.apply(term) == term     # the index now knows PrimCall
        rule_set.add_rule(Rule("fold-constants", lambda e: B.const(3), node_types=A.PrimCall))
        rule_set.add_rule(Rule("never", lambda e: None))
        stats = RewriteStats()
        assert rule_set.apply(term, stats) == B.const(3)
        assert stats.firings == {"fold-constants": 1}
        assert [rule.name for rule in rule_set._rules_for(A.Const)] == ["never"]

    def test_an_undeclared_rule_sees_every_node(self):
        seen = []
        spy = Rule("spy", lambda e: seen.append(type(e).__name__))
        term = B.ext("x", B.singleton(B.project(B.var("x"), "a")), B.var("S"))
        for direction in ("bottom-up", "top-down"):
            del seen[:]
            rule_set = RuleSet("designer", list(MONADIC_RULES) + [spy], direction=direction)
            assert rule_set.apply(term) == term
            assert sorted(seen) == sorted(type(node).__name__ for node in _subterms(term))

    def test_a_declared_rule_is_never_handed_another_node(self):
        def only_unions(expr):
            assert type(expr) is A.Union
            return None

        rule_set = RuleSet("typed", [Rule("typed", only_unions, node_types=(A.Union,))])
        term = B.union(B.ext("x", B.singleton(B.var("x")), B.var("S")), B.var("T"))
        assert rule_set.apply(term) == term
        assert Rule("typed", only_unions, node_types=A.Union).apply(B.var("S")) is None

    def test_the_scoped_caching_pass_still_reports_its_firings(self, terms):
        fired = RewriteStats()
        for label, pipeline, term in terms:
            if label in ("aggregate", "semi-join"):
                caching = [rs for rs in pipeline.engine.rule_sets if rs.name == "caching"]
                pipeline.optimize(term, fired)
                assert type(caching[0]).__name__ == "_ScopedCachingRuleSet"
        assert fired.fired("hoist-loop-invariant") >= 1
        assert fired.fired("index-correlated-loop") >= 1


def test_an_adhoc_query_costs_tens_of_rule_calls_not_hundreds(terms, monkeypatch):
    calls = []
    adhoc = [(label, pipeline, term) for label, pipeline, term in terms
             if label.startswith("adhoc")]
    for rule_set in adhoc[0][1].engine.rule_sets:
        for rule in rule_set.rules:
            def counted(expr, function=rule.function):
                calls.append(1)
                return function(expr)
            monkeypatch.setattr(rule, "function", counted)
    per_query = []
    for label, pipeline, term in adhoc:
        del calls[:]
        stats = RewriteStats()
        pipeline.optimize(term, stats)
        per_query.append((len(calls), stats.total()))
    assert len(per_query) == 10
    # 825 calls a query when every rule was tried at every node.
    assert sum(calls for calls, _ in per_query) / 10 <= 60
    selections = [calls for calls, firings in per_query if firings == 1]
    assert selections and max(selections) <= 40
