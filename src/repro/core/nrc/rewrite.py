"""The rewrite engine.

Section 4: *"Optimization of queries is done entirely at compile time using
rewrite rules ... new rules can be specified by the designer of the system and
grouped into rule sets along with an indication of how they are to be applied,
e.g. bottom-up or top-down with respect to the tree of sub-expressions and how
many iterations of a rule set should be applied in what order."*

This module implements exactly that machinery:

* :class:`Rule` — a named function ``Expr -> Expr | None`` (``None`` = no match)
  and, optionally, the node types it can match at the root,
* :class:`RuleSet` — an ordered group of rules plus a traversal direction and
  an iteration bound; a node is offered the rules whose declaration admits
  its type (resolved once per type),
* :class:`RewriteEngine` — applies a sequence of rule sets and records which
  rules fired (:class:`RewriteStats`), which the optimizer's ``explain`` output
  and the tests rely on.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import NRCError
from . import ast as A

__all__ = ["Rule", "RuleSet", "RewriteEngine", "RewriteStats"]


class Rule:
    """A single rewrite rule.

    ``function`` takes an expression and returns either a replacement
    expression or ``None`` when the rule does not apply at that node.

    ``node_types`` (a class or tuple of classes, as for ``isinstance``;
    subclasses count) declares the only root nodes the rule can match.  It is
    the rule's root-type guard, stated once: ``function`` is only handed such
    a node and does not test for it again.  The declaration is an index, not
    a switch — a :class:`RuleSet` uses it to skip calls whose answer is known
    to be ``None``, never to turn a rule off.  A rule that declares nothing
    is tried at every node of every pass: what an undeclared rule costs.
    """

    def __init__(self, name: str, function: Callable[[A.Expr], Optional[A.Expr]],
                 description: str = "", node_types=None):
        self.name = name
        self.function = function
        self.description = description
        self.node_types = node_types

    def apply(self, expr: A.Expr) -> Optional[A.Expr]:
        if self.node_types is not None and not isinstance(expr, self.node_types):
            return None
        return self.function(expr)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Rule({self.name})"


class RewriteStats:
    """Counts how many times each rule fired during a rewrite run."""

    def __init__(self) -> None:
        self.firings: Dict[str, int] = {}
        self.passes = 0

    def note(self, rule_name: str) -> None:
        self.firings[rule_name] = self.firings.get(rule_name, 0) + 1

    def total(self) -> int:
        return sum(self.firings.values())

    def fired(self, rule_name: str) -> int:
        return self.firings.get(rule_name, 0)

    def merge(self, other: "RewriteStats") -> None:
        for name, count in other.firings.items():
            self.firings[name] = self.firings.get(name, 0) + count
        self.passes += other.passes

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        parts = ", ".join(f"{name}×{count}" for name, count in sorted(self.firings.items()))
        return f"RewriteStats({parts})"


class RuleSet:
    """An ordered collection of rules with a traversal strategy.

    ``direction`` is ``"bottom-up"`` (children first — the default, right for
    fusion rules that want normalised children) or ``"top-down"`` (useful for
    pushdown rules that want to see the largest enclosing comprehension first).
    ``max_iterations`` bounds the number of whole-tree passes; the monadic
    rules are strongly normalising so the bound is a safety net, but pushdown
    rule sets may intentionally run a single pass.
    """

    def __init__(self, name: str, rules: Sequence[Rule], direction: str = "bottom-up",
                 max_iterations: int = 25):
        if direction not in ("bottom-up", "top-down"):
            raise NRCError(f"unknown traversal direction {direction!r}")
        self.name = name
        self.rules: Tuple[Rule, ...] = tuple(rules)
        self.direction = direction
        self.max_iterations = max_iterations
        self._rules_by_type: Dict[type, Tuple[Rule, ...]] = {}

    def add_rule(self, rule: Rule) -> None:
        """Append a rule (the extensibility hook the paper emphasises)."""
        self.rules = self.rules + (rule,)
        self._rules_by_type = {}

    def _rules_for(self, node_type: type) -> Tuple[Rule, ...]:
        """The rules, in order, whose declaration admits ``node_type``."""
        rules = self._rules_by_type.get(node_type)
        if rules is None:
            rules = self._rules_by_type[node_type] = tuple(
                rule for rule in self.rules
                if rule.node_types is None or issubclass(node_type, rule.node_types))
        return rules

    def apply(self, expr: A.Expr, stats: Optional[RewriteStats] = None) -> A.Expr:
        """Apply this rule set to ``expr`` until fixpoint or the iteration bound."""
        stats = stats if stats is not None else RewriteStats()
        current = expr
        for _ in range(self.max_iterations):
            stats.passes += 1
            rewritten, changed = self._one_pass(current, stats)
            if not changed:
                return rewritten
            current = rewritten
        return current

    def _one_pass(self, expr: A.Expr, stats: RewriteStats) -> Tuple[A.Expr, bool]:
        if self.direction == "bottom-up":
            return self._bottom_up(expr, stats)
        return self._top_down(expr, stats)

    #: Bound on rule firings at a single node within one pass; a non-terminating
    #: rule therefore cannot wedge the engine — it just stops making progress
    #: at this node until the next pass (which the pass bound also limits).
    MAX_FIRINGS_PER_NODE = 20

    def _apply_rules_at(self, expr: A.Expr, stats: RewriteStats) -> Tuple[A.Expr, bool]:
        changed = False
        current = expr
        firings = 0
        progressing = True
        while progressing and firings < self.MAX_FIRINGS_PER_NODE:
            progressing = False
            for rule in self._rules_for(type(current)):
                replacement = rule.function(current)
                if replacement is not None and replacement != current:
                    stats.note(rule.name)
                    current = replacement
                    changed = True
                    progressing = True
                    firings += 1
                    break
        return current, changed

    def _bottom_up(self, expr: A.Expr, stats: RewriteStats) -> Tuple[A.Expr, bool]:
        children = expr.children()
        changed = False
        if children:
            new_children: List[A.Expr] = []
            for child in children:
                new_child, child_changed = self._bottom_up(child, stats)
                new_children.append(new_child)
                changed = changed or child_changed
            if changed:
                expr = expr.rebuild(new_children)
        expr, fired = self._apply_rules_at(expr, stats)
        return expr, changed or fired

    def _top_down(self, expr: A.Expr, stats: RewriteStats) -> Tuple[A.Expr, bool]:
        expr, fired = self._apply_rules_at(expr, stats)
        children = expr.children()
        changed = fired
        if children:
            new_children: List[A.Expr] = []
            child_changed_any = False
            for child in children:
                new_child, child_changed = self._top_down(child, stats)
                new_children.append(new_child)
                child_changed_any = child_changed_any or child_changed
            if child_changed_any:
                expr = expr.rebuild(new_children)
                changed = True
        return expr, changed

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RuleSet({self.name}, {len(self.rules)} rules, {self.direction})"


class RewriteEngine:
    """Applies a configured sequence of rule sets to an expression.

    The engine is deliberately dumb: all intelligence lives in the rules.  The
    :mod:`repro.core.optimizer.pipeline` module wires the paper's rule sets
    (monadic normalisation, pushdown, joins, caching, parallelism) into one
    engine per Kleisli session.
    """

    def __init__(self, rule_sets: Sequence[RuleSet] = ()):
        self.rule_sets: List[RuleSet] = list(rule_sets)

    def rewrite(self, expr: A.Expr, stats: Optional[RewriteStats] = None) -> A.Expr:
        stats = stats if stats is not None else RewriteStats()
        current = expr
        for rule_set in self.rule_sets:
            current = rule_set.apply(current, stats)
        return current

    def explain(self, expr: A.Expr) -> Tuple[A.Expr, RewriteStats, List[Tuple[str, str]]]:
        """Rewrite and also return per-rule-set before/after renderings."""
        stats = RewriteStats()
        traces: List[Tuple[str, str]] = []
        current = expr
        for rule_set in self.rule_sets:
            before = current.pretty()
            current = rule_set.apply(current, stats)
            after = current.pretty()
            traces.append((rule_set.name, f"{before}  ==>  {after}"))
        return current, stats, traces
