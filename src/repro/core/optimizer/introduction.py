"""Driver introduction: turn driver-function applications into Scan nodes.

When a session registers a driver, each of the driver's CPL functions (``GDB``,
``GDB-Tab``, ``GenBank``, ``NA-Links``, ...) is described by a
:class:`ScanSpec`.  The introduction rule set rewrites::

    Apply(Var("GDB-Tab"), Const("locus"))
        -->  Scan("GDB", {"table": "locus"})

    Apply(Var("GenBank"), RecordExpr{db = "na", select = e, path = "..."})
        -->  Scan("GenBank", {"db": "na", "path": "..."}, args={"select": e})

Constant argument parts move into the Scan's request (visible to the pushdown
rules); computed parts stay as ``args`` expressions evaluated at run time.
Applications whose shape the rule does not recognise are left alone — the
session also binds the driver functions as ordinary callables, so such calls
still evaluate, they just are not optimizable.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from .._fields import Fields
from ..nrc import ast as A
from ..nrc.rewrite import Rule, RuleSet

__all__ = ["ScanSpec", "make_introduction_rule_set"]


class ScanSpec(Fields):
    """Compile-time description of one driver function."""

    driver: str
    request_template: Dict[str, object] = {}
    argument_key: Optional[str] = None
    argument_is_record: bool = False
    result_kind: str = "set"


def make_introduction_rule_set(registry: Mapping[str, ScanSpec]) -> RuleSet:
    """Build the introduction rule set for the given function registry."""

    def introduce(expr: A.Apply) -> Optional[A.Expr]:
        func = expr.func
        if not isinstance(func, A.Var) or func.name not in registry:
            return None
        spec = registry[func.name]
        request = dict(spec.request_template)
        args: Dict[str, A.Expr] = {}
        argument = expr.arg

        if spec.argument_is_record:
            if not isinstance(argument, A.RecordExpr):
                return None
            for label, value in argument.fields.items():
                if isinstance(value, A.Const):
                    request[label] = value.value
                else:
                    args[label] = value
        elif spec.argument_key is not None:
            if isinstance(argument, A.Const):
                request[spec.argument_key] = argument.value
            else:
                args[spec.argument_key] = argument
        return A.Scan(spec.driver, request, args, spec.result_kind)

    rule = Rule("driver-introduction", introduce,
                "replace applications of registered driver functions with Scan nodes",
                node_types=A.Apply)
    return RuleSet("introduction", [rule], direction="bottom-up", max_iterations=5)
