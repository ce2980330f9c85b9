"""Pushdown of projections and variant selections into ASN.1 path expressions.

The Entrez driver cannot evaluate queries, but it *can* apply a path expression
while it parses an entry, pruning everything off the path.  The paper notes
that "general rewrite rules for the translation of CPL queries to path
expressions are not available" — their system migrates the simple cases, and
so does this rule set:

* ``U{ {x.label} | \\x <- Scan(entrez, select=...) }`` — a comprehension that
  only projects a field from each retrieved entry — extends the scan's path
  with ``.label`` and disappears;
* chains of projections (``x.seq.id``) extend the path with several steps;
* a trailing variant selection written as a ``case`` with a single branch and
  an empty default extends it with ``..tag``.
"""

from __future__ import annotations

from typing import FrozenSet, List, Mapping, Optional

from ..nrc import ast as A
from ..nrc.rewrite import Rule, RuleSet

__all__ = ["make_path_pushdown_rule_set"]

_DEFAULT_ROOT = "Entry"


def make_path_pushdown_rule_set(capabilities: Mapping[str, FrozenSet[str]]) -> RuleSet:
    """Build the path pushdown rule set for drivers whose capabilities include 'path'."""

    def path_capable(driver: str) -> bool:
        return "path" in capabilities.get(driver, frozenset())

    def push_path(expr: A.Ext) -> Optional[A.Expr]:
        if expr.kind != "set":
            return None
        source = expr.source
        if not isinstance(source, A.Scan) or not path_capable(source.driver):
            return None
        if "select" not in source.request and "select" not in source.args:
            return None
        steps = _extract_steps(expr.body, expr.var)
        if not steps:
            return None
        existing = str(source.request.get("path", "")) or _DEFAULT_ROOT
        new_path = existing + "".join(steps)
        request = dict(source.request)
        request["path"] = new_path
        return source.with_request(request)

    rule = Rule("asn1-path-pushdown", push_path,
                "migrate projections / variant selections into the driver's path expression",
                node_types=A.Ext)
    return RuleSet("path-pushdown", [rule], direction="top-down", max_iterations=3)


def _extract_steps(body: A.Expr, var: str) -> Optional[List[str]]:
    """Return path steps when the body only projects/extracts from the loop variable.

    Recognised shapes (after monadic normalisation):

    * ``Singleton(projection-chain over Var(var))`` → ``.a.b...``
    * ``Singleton(case of projection-chain with a single branch whose body is
      the branch variable and whose default is ignored)`` — not produced by the
      current desugarer, so variant pushdown is driven by the case-in-body form
      below;
    * ``Case(projection-chain, [tag -> Singleton(Var payload)], default Empty)``
      → ``.a.b..tag``.
    """
    if isinstance(body, A.Singleton) and body.kind == "set":
        chain = _projection_chain(body.expr, var)
        if chain is not None:
            return [f".{label}" for label in chain]
        return None
    if isinstance(body, A.Case):
        chain = _projection_chain(body.subject, var)
        if chain is None or len(body.branches) != 1:
            return None
        branch = body.branches[0]
        if body.default is None or not isinstance(body.default[1], A.Empty):
            return None
        if not (isinstance(branch.body, A.Singleton)
                and isinstance(branch.body.expr, A.Var)
                and branch.body.expr.name == branch.var):
            return None
        return [f".{label}" for label in chain] + [f"..{branch.tag}"]
    return None


def _projection_chain(expr: A.Expr, var: str) -> Optional[List[str]]:
    """``x.a.b.c`` → ["a", "b", "c"]; None when the expression is anything else."""
    labels: List[str] = []
    current = expr
    while isinstance(current, A.Project):
        labels.append(current.label)
        current = current.expr
    if isinstance(current, A.Var) and current.name == var and labels:
        return list(reversed(labels))
    return None
