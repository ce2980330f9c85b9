"""Local joins: recognizing which equality is the key.

"The most important of these [non-monadic optimizations] are dedicated to
improving the performance of joins across data sources, that is, joins that
cannot be moved to database servers and must be performed locally.  To do
this, two join operators have been added as additional primitives ...: the
blocked nested-loop join, and the indexed blocked-nested-loop join where
indices are built on-the-fly ... The join rule-set is dedicated to recognizing
under what conditions to apply which join operator."

Here neither operator is an AST node.  A local join is the loop it was
written as, and the decorrelation stage (:mod:`repro.core.optimizer.caching`)
plans it: an inner loop whose *first* equality pairs a key of its own row with
one of the outer row becomes a probe of an index built once per run (the
indexed join); any other inner subquery that does not mention the outer row
is hoisted and computed once (the blocked join).  That stage never moves a
filter, so it cannot choose which of several is the key: this stage's one
job.  The rule matches the canonical two-generator nested loop

    U{ ... U{ if c1 then .. if cn then body else {} .. else {} | \\y <- inner } ... | \\x <- outer }

where ``inner`` does not mention ``x``.  It takes the first ``ci`` that is an
equality between a side over ``x`` and a side over ``y`` and moves it in front
of the first filter before it that the decorrelation walk would stop at: one
that mentions anything but ``y``, or another equality (``y.cls = 1`` would
become the index key, and every probe scan a third of ``inner``).  Every other
filter keeps its place: those over ``y`` alone ahead of the key run while the
index is built, as written, and those between the two generators run once per
outer row, before the probe.  Nothing happens when nothing stands in the key's
way or there is no key.

This stage therefore plans nothing on its own.  With ``OptimizerConfig.caching``
off its reorder has no effect on the work done and a local join is the nested
loop as written, the inner source evaluated (an inner ``Scan``: requested)
once per outer row.  The two switches ablate *which key* and *any plan at all*.

The reorder is the one rewrite of the local-join plan that can change which
error a query reports, or whether it reports one: the filters the key jumped
now see only the rows it matches, and the key's two sides are evaluated for
rows those filters would have turned away.  With total expressions nothing
changes but the work done.
"""

from __future__ import annotations

from typing import Optional

from ..nrc import ast as A
from ..nrc.rewrite import Rule, RuleSet

__all__ = ["make_join_rule_set"]


def make_join_rule_set() -> RuleSet:
    """Build the join rule set (one rule: put the key equality first)."""
    rule = Rule("local-join", _key_first,
                "move the key equality of an uncorrelated nested loop in front of its filters",
                node_types=A.Ext)
    return RuleSet("joins", [rule], direction="top-down", max_iterations=3)


def _key_first(expr: A.Ext) -> Optional[A.Expr]:
    if expr.kind != "set":
        return None
    prefix, inner = A.filter_chain(expr.body)
    if not (isinstance(inner, A.Ext) and inner.kind == "set") \
            or expr.var in A.free_variables(inner.source):
        return None     # no inner loop, or a correlated one: it stays as written
    conditions, body = A.filter_chain(inner.body)
    at = next((at for at, condition in enumerate(conditions)
               if _is_key(condition, expr.var, inner.var)), None)
    if at is None:
        return None
    blocker = next((before for before, condition in enumerate(conditions[:at])
                    if _is_equality(condition)
                    or A.free_variables(condition) - {inner.var}), None)
    if blocker is None:
        return None
    conditions.insert(blocker, conditions.pop(at))
    loop = A.Ext(inner.var, A.filtered(conditions, body, inner.kind), inner.source, inner.kind)
    return A.Ext(expr.var, A.filtered(prefix, loop, expr.kind), expr.source, expr.kind)


def _is_equality(condition: A.Expr) -> bool:
    return (isinstance(condition, A.PrimCall) and condition.name == "eq"
            and len(condition.args) == 2)


def _is_key(condition: A.Expr, outer_var: str, inner_var: str) -> bool:
    """An equality usable as a hash key: one side mentions the outer row and
    not the inner one, the other side the inner row and not the outer one."""
    if not _is_equality(condition):
        return False
    left, right = (A.free_variables(side) for side in condition.args)
    return any(outer_var in mine and inner_var not in mine
               and inner_var in other and outer_var not in other
               for mine, other in ((left, right), (right, left)))
