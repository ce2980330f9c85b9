"""Local join operators and the rule set that introduces them.

"The most important of these [non-monadic optimizations] are dedicated to
improving the performance of joins across data sources, that is, joins that
cannot be moved to database servers and must be performed locally.  To do
this, two join operators have been added as additional primitives ...: the
blocked nested-loop join, and the indexed blocked-nested-loop join where
indices are built on-the-fly ... The join rule-set is dedicated to recognizing
under what conditions to apply which join operator."

The rule matches the canonical two-generator nested loop

    U{ ... U{ if cond then body else {} | \\y <- inner } ... | \\x <- outer }

where ``inner`` does not depend on ``x``.  If one conjunct of ``cond`` is an
equality whose sides depend on ``x`` only and ``y`` only, the indexed join is
chosen (the equality becomes the hash key); otherwise the blocked nested-loop
join is used.  Statistics gate the rewrite: tiny inners are left alone.

``body`` is whatever set expression the filter chain under ``y`` ends in: the
singleton ``{head}`` of a two-generator comprehension, or the loop over a
third generator.  The rule set runs top-down, so an n-way join forms at its
two *outermost* generators and keeps the remaining loops as the join body,
evaluated per matched pair; the caching stage
(:mod:`repro.core.optimizer.caching`) then turns each of those loops that
has an equality of its own into a probe of an index built once per run.  The
plan is a left-deep chain: one join on top, one probe per further generator,
and no index is ever rebuilt inside a loop.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..nrc import ast as A
from ..nrc.rewrite import Rule, RuleSet

__all__ = ["make_join_rule_set"]


def make_join_rule_set(cardinality_of: Optional[Callable[[A.Expr], int]] = None,
                       minimum_inner_size: int = 8) -> RuleSet:
    """Build the join rule set.

    ``cardinality_of`` maps a source expression to an estimated size (the
    engine wires this to the statically registered statistics); when it is
    missing every candidate is rewritten.
    """

    def estimate(source: A.Expr) -> int:
        if cardinality_of is None:
            return minimum_inner_size
        return cardinality_of(source)

    def introduce_join(expr: A.Ext) -> Optional[A.Expr]:
        if expr.kind != "set":
            return None
        inner_ext, prefix_filters = _find_inner_loop(expr.body)
        if inner_ext is None:
            return None
        if expr.var in A.free_variables(inner_ext.source):
            return None  # correlated inner loops stay nested (caching handles them)
        if estimate(inner_ext.source) < minimum_inner_size:
            return None
        conditions, body = _collect_conditions(inner_ext.body)
        key_pair, residual = _split_equality(conditions, expr.var, inner_ext.var)
        residual_condition = _conjunction(residual)
        # Re-apply any filters that sat between the two generators (they only
        # involve the outer variable, so they become part of the condition).
        if prefix_filters:
            outer_only = _conjunction(prefix_filters)
            residual_condition = (outer_only if residual_condition is None
                                  else A.PrimCall("and", [outer_only, residual_condition]))
        if key_pair is not None:
            outer_key, inner_key = key_pair
            return A.Join("indexed", expr.var, expr.source, inner_ext.var, inner_ext.source,
                          residual_condition, body, outer_key, inner_key, expr.kind)
        return A.Join("blocked", expr.var, expr.source, inner_ext.var, inner_ext.source,
                      residual_condition, body, None, None, expr.kind)

    rule = Rule("local-join", introduce_join,
                "replace an uncorrelated nested loop with a blocked or indexed join operator",
                node_types=A.Ext)
    return RuleSet("joins", [rule], direction="top-down", max_iterations=3)


def _find_inner_loop(body: A.Expr) -> Tuple[Optional[A.Ext], List[A.Expr]]:
    """Walk the filter chain under the outer generator looking for the inner Ext."""
    filters: List[A.Expr] = []
    current = body
    while isinstance(current, A.IfThenElse) and isinstance(current.else_branch, A.Empty):
        filters.append(current.cond)
        current = current.then_branch
    if isinstance(current, A.Ext) and current.kind == "set":
        return current, filters
    return None, filters


def _collect_conditions(body: A.Expr) -> Tuple[List[A.Expr], A.Expr]:
    """Split the inner generator's body into its filter chain and what the
    chain ends in (a set expression: the generator is a set loop)."""
    conditions: List[A.Expr] = []
    current = body
    while isinstance(current, A.IfThenElse) and isinstance(current.else_branch, A.Empty):
        conditions.append(current.cond)
        current = current.then_branch
    return conditions, current


def _split_equality(conditions: List[A.Expr], outer_var: str, inner_var: str):
    """Find one equality usable as a hash key; return ((outer_key, inner_key), residual)."""
    key_pair = None
    residual: List[A.Expr] = []
    for condition in conditions:
        if key_pair is None and isinstance(condition, A.PrimCall) and condition.name == "eq" \
                and len(condition.args) == 2:
            left, right = condition.args
            left_free = A.free_variables(left)
            right_free = A.free_variables(right)
            if outer_var in left_free and inner_var not in left_free \
                    and inner_var in right_free and outer_var not in right_free:
                key_pair = (left, right)
                continue
            if inner_var in left_free and outer_var not in left_free \
                    and outer_var in right_free and inner_var not in right_free:
                key_pair = (right, left)
                continue
        residual.append(condition)
    return key_pair, residual


def _conjunction(conditions: List[A.Expr]) -> Optional[A.Expr]:
    if not conditions:
        return None
    result = conditions[0]
    for condition in conditions[1:]:
        result = A.PrimCall("and", [result, condition])
    return result
