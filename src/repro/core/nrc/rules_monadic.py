"""The monadic rewrite rules (Section 4, "Monadic Optimizations").

These rules come from the equational theory of monads underlying NRC and
generalise classical relational-algebra optimizations to nested collections:

* **R1 — vertical loop fusion**: combine a producer loop and a consumer loop,
  eliminating the intermediate collection::

      U{e1 | \\x <- U{e2 | \\y <- e3}}  -->  U{U{e1 | \\x <- e2} | \\y <- e3}

* **R2 — horizontal loop fusion**: combine two independent loops over the same
  collection into one traversal (sets and bags only, not lists)::

      U{e1 | \\x <- e} U U{e2 | \\x <- e}  -->  U{e1 U e2 | \\x <- e}

* **R3 — filter promotion**: hoist a loop-invariant test out of the loop::

      U{if p then e1 else e2 | \\x <- e}
          -->  if p then U{e1 | \\x <- e} else U{e2 | \\x <- e}     (x not free in p)

* **R4 — projection reduction**: ``[l = e, ...].l --> e``, the analogue of
  column pruning in relational systems.

Alongside these the rule set contains the monad laws and standard beta/let/if
simplifications needed to reach a normal form (the paper: "the monad rewrite
rules are initially applied until a normal form is reached; this is guaranteed
to terminate ... because the rewrite rules are strongly normalizing").  One of
them is what keeps R1 closed under composition:

* **filtered-source promotion**: a loop over a guarded source runs under the
  guard, so a consumer fuses *through* a filtered producer instead of
  stalling at it::

      U{e | \\x <- if p then s else {}}  -->  if p then U{e | \\x <- s} else {}

  Without it a view such as ``Loci22`` normalises differently when it is used
  inside another comprehension than when it is run on its own, and every
  later rule set that recognises the flat generator/filter/head block misses.

* **literal union**: CPL has no infix union; a query flattens a literal of
  collections, ``{x | \\s <- {A, B, C}, \\x <- s}``.  Distributing the loop over
  exactly that source shape (``ext-union-source``), the left unit and the
  right unit ``U{{x} | \\x <- s}  -->  s`` normalise it to ``A U (B U C)``,
  which streams under one seen-set instead of materialising three operands.

:data:`MONADIC_RULES` is the one rule order; :func:`monadic_rule_set` builds
from it.
"""

from __future__ import annotations

from typing import Optional

from . import ast as A
from .rewrite import Rule, RuleSet
from .structural import proven_collection_kind

__all__ = [
    "rule_vertical_fusion",
    "rule_horizontal_fusion",
    "rule_filter_promotion",
    "rule_projection_reduction",
    "rule_beta_reduction",
    "rule_let_inline",
    "rule_if_constant",
    "rule_case_of_variant",
    "rule_ext_empty_source",
    "rule_ext_empty_body",
    "rule_ext_filtered_source",
    "rule_ext_singleton_source",
    "rule_ext_singleton_body",
    "rule_ext_union_source",
    "rule_dead_branch_union",
    "rule_fold_empty_source",
    "rule_fold_singleton_source",
    "monadic_rule_set",
    "MONADIC_RULES",
]


# ---------------------------------------------------------------------------
# R1: vertical loop fusion
# ---------------------------------------------------------------------------

def _vertical_fusion(expr: A.Ext) -> Optional[A.Expr]:
    inner = expr.source
    if not isinstance(inner, A.Ext) or inner.kind != expr.kind:
        return None
    # U{ e1 | \x <- U{ e2 | \y <- e3 } }  -->  U{ U{ e1 | \x <- e2 } | \y <- e3 }
    # The inner binder y must not capture a free variable of e1.
    inner_var = inner.var
    inner_body = inner.body
    if inner_var in A.free_variables(expr.body):
        renamed = A.fresh_var(inner_var.strip("%\\"))
        inner_body = A.substitute(inner_body, inner_var, A.Var(renamed))
        inner_var = renamed
    fused_inner = A.Ext(expr.var, expr.body, inner_body, expr.kind)
    return A.Ext(inner_var, fused_inner, inner.source, expr.kind)


rule_vertical_fusion = Rule(
    "R1-vertical-fusion",
    _vertical_fusion,
    "combine a producer comprehension and its consumer, removing the intermediate collection",
    node_types=A.Ext,
)


# ---------------------------------------------------------------------------
# R2: horizontal loop fusion (sets and bags only)
# ---------------------------------------------------------------------------

def _horizontal_fusion(expr: A.Union) -> Optional[A.Expr]:
    if expr.kind == "list":
        return None
    left, right = expr.left, expr.right
    if not (isinstance(left, A.Ext) and isinstance(right, A.Ext)):
        return None
    if left.kind != expr.kind or right.kind != expr.kind:
        return None
    if left.source != right.source:
        return None
    # Align the right binder with the left binder.
    right_body = right.body
    if right.var != left.var:
        if left.var in A.free_variables(right_body):
            return None
        right_body = A.substitute(right_body, right.var, A.Var(left.var))
    fused_body = A.Union(left.body, right_body, expr.kind)
    return A.Ext(left.var, fused_body, left.source, expr.kind)


rule_horizontal_fusion = Rule(
    "R2-horizontal-fusion",
    _horizontal_fusion,
    "combine two independent loops over the same set/bag into a single traversal",
    node_types=A.Union,
)


# ---------------------------------------------------------------------------
# R3: filter promotion
# ---------------------------------------------------------------------------

def _filter_promotion(expr: A.Ext) -> Optional[A.Expr]:
    body = expr.body
    if not isinstance(body, A.IfThenElse):
        return None
    if expr.var in A.free_variables(body.cond):
        return None
    then_ext = A.Ext(expr.var, body.then_branch, expr.source, expr.kind)
    else_ext = A.Ext(expr.var, body.else_branch, expr.source, expr.kind)
    return A.IfThenElse(body.cond, then_ext, else_ext)


rule_filter_promotion = Rule(
    "R3-filter-promotion",
    _filter_promotion,
    "hoist a loop-invariant filter out of the loop",
    node_types=A.Ext,
)


# ---------------------------------------------------------------------------
# R4: projection reduction
# ---------------------------------------------------------------------------

def _projection_reduction(expr: A.Project) -> Optional[A.Expr]:
    subject = expr.expr
    if not isinstance(subject, A.RecordExpr):
        return None
    return subject.fields.get(expr.label)


rule_projection_reduction = Rule(
    "R4-projection-reduction",
    _projection_reduction,
    "reduce [l = e, ...].l to e, pruning unused columns in intermediate data",
    node_types=A.Project,
)


# ---------------------------------------------------------------------------
# Monad laws and supporting simplifications
# ---------------------------------------------------------------------------

def _beta_reduction(expr: A.Apply) -> Optional[A.Expr]:
    func = expr.func
    if not isinstance(func, A.Lam):
        return None
    return A.substitute(func.body, func.param, expr.arg)


rule_beta_reduction = Rule(
    "beta-reduction",
    _beta_reduction,
    "(\\x => e)(a) --> e[a/x]; inlines CPL function definitions before optimization",
    node_types=A.Apply,
)


def _count_occurrences(expr: A.Expr, name: str) -> int:
    if isinstance(expr, A.Var):
        return 1 if expr.name == name else 0
    if isinstance(expr, A.Lam) and expr.param == name:
        return 0
    if isinstance(expr, A.Ext) and expr.var == name:
        return _count_occurrences(expr.source, name)
    if isinstance(expr, A.Let) and expr.var == name:
        return _count_occurrences(expr.value, name)
    return sum(_count_occurrences(child, name) for child in expr.children())


def _is_cheap(expr: A.Expr) -> bool:
    if isinstance(expr, (A.Const, A.Var)):
        return True
    if isinstance(expr, A.Project):
        return _is_cheap(expr.expr)
    return False


def _let_inline(expr: A.Let) -> Optional[A.Expr]:
    occurrences = _count_occurrences(expr.body, expr.var)
    if occurrences == 0:
        return expr.body
    if occurrences == 1 or _is_cheap(expr.value):
        return A.substitute(expr.body, expr.var, expr.value)
    return None


rule_let_inline = Rule(
    "let-inline",
    _let_inline,
    "inline let-bound values that are cheap or used at most once",
    node_types=A.Let,
)


def _if_constant(expr: A.IfThenElse) -> Optional[A.Expr]:
    cond = expr.cond
    if isinstance(cond, A.Const) and isinstance(cond.value, bool):
        return expr.then_branch if cond.value else expr.else_branch
    if expr.then_branch == expr.else_branch:
        return expr.then_branch
    return None


rule_if_constant = Rule(
    "if-constant",
    _if_constant,
    "simplify conditionals with constant or irrelevant conditions",
    node_types=A.IfThenElse,
)


def _case_of_variant(expr: A.Case) -> Optional[A.Expr]:
    subject = expr.subject
    if not isinstance(subject, A.VariantExpr):
        return None
    for branch in expr.branches:
        if branch.tag == subject.tag:
            return A.substitute(branch.body, branch.var, subject.expr)
    if expr.default is not None:
        var, body = expr.default
        return A.substitute(body, var, subject)
    return None


rule_case_of_variant = Rule(
    "case-of-variant",
    _case_of_variant,
    "resolve case analysis over a syntactic variant constructor",
    node_types=A.Case,
)


def _ext_empty_source(expr: A.Ext) -> Optional[A.Expr]:
    if isinstance(expr.source, A.Empty):
        return A.Empty(expr.kind)
    return None


rule_ext_empty_source = Rule(
    "ext-empty-source",
    _ext_empty_source,
    "a loop over the empty collection is the empty collection",
    node_types=A.Ext,
)


def _ext_empty_body(expr: A.Ext) -> Optional[A.Expr]:
    if isinstance(expr.body, A.Empty) and expr.body.kind == expr.kind:
        return A.Empty(expr.kind)
    return None


rule_ext_empty_body = Rule(
    "ext-empty-body",
    _ext_empty_body,
    "a loop whose body is always empty produces the empty collection",
    node_types=A.Ext,
)


def _ext_filtered_source(expr: A.Ext) -> Optional[A.Expr]:
    source = expr.source
    if not isinstance(source, A.IfThenElse) or not isinstance(source.else_branch, A.Empty):
        return None
    # The guard sits outside the binder on both sides, so nothing can be
    # captured and no side condition on the loop variable is needed.
    return A.IfThenElse(source.cond,
                        A.Ext(expr.var, expr.body, source.then_branch, expr.kind),
                        A.Empty(expr.kind))


rule_ext_filtered_source = Rule(
    "ext-filtered-source",
    _ext_filtered_source,
    "a loop over a guarded source is the guarded loop over the unguarded source",
    node_types=A.Ext,
)


def _ext_singleton_source(expr: A.Ext) -> Optional[A.Expr]:
    source = expr.source
    if not isinstance(source, A.Singleton) or source.kind != expr.kind:
        return None
    # The left unit law: U{ e | \x <- {a} } --> e[a/x]
    return A.substitute(expr.body, expr.var, source.expr)


rule_ext_singleton_source = Rule(
    "ext-singleton-source",
    _ext_singleton_source,
    "monad left-unit law: a loop over a singleton is a substitution",
    node_types=A.Ext,
)


def _ext_singleton_body(expr: A.Ext) -> Optional[A.Expr]:
    body = expr.body
    if not (isinstance(body, A.Singleton) and body.kind == expr.kind
            and isinstance(body.expr, A.Var) and body.expr.name == expr.var):
        return None
    # The right unit law: U{ {x} | \x <- s } --> s.  Looping over a source of
    # another kind converts it, so s must be proven to be of the loop's kind.
    if proven_collection_kind(expr.source) != expr.kind:
        return None
    return expr.source


rule_ext_singleton_body = Rule(
    "ext-singleton-body",
    _ext_singleton_body,
    "monad right-unit law: a loop that rebuilds its source is its source",
    node_types=A.Ext,
)


def _is_literal_of_collections(source: A.Expr) -> bool:
    """``{A, B, ...}`` as desugared: a union of empties and of singletons
    whose element is itself a proven collection."""
    if isinstance(source, A.Union):
        return (_is_literal_of_collections(source.left)
                and _is_literal_of_collections(source.right))
    if isinstance(source, A.Singleton):
        return proven_collection_kind(source.expr) is not None
    return isinstance(source, A.Empty)


def _ext_union_source(expr: A.Ext) -> Optional[A.Expr]:
    source = expr.source
    if not isinstance(source, A.Union) or proven_collection_kind(source) != expr.kind:
        return None
    # Only a literal of collections: each copy of the body then meets a
    # singleton and reduces by the left unit, so nothing is duplicated at run
    # time.  A loop over literal scalars keeps its one (batched, parallel)
    # loop, and a body is never copied over a general union.
    if not _is_literal_of_collections(source):
        return None
    left = A.Ext(expr.var, expr.body, source.left, expr.kind)
    right = A.Ext(expr.var, expr.body, source.right, expr.kind)
    return A.Union(left, right, expr.kind)


rule_ext_union_source = Rule(
    "ext-union-source",
    _ext_union_source,
    "distribute a loop over a literal union of collections",
    node_types=A.Ext,
)


def _dead_branch_union(expr: A.Union) -> Optional[A.Expr]:
    if isinstance(expr.left, A.Empty):
        return expr.right
    if isinstance(expr.right, A.Empty):
        return expr.left
    return None


rule_dead_branch_union = Rule(
    "union-empty",
    _dead_branch_union,
    "drop empty operands of a union",
    node_types=A.Union,
)


# ---------------------------------------------------------------------------
# Structural recursion laws (fold over the collection constructors)
# ---------------------------------------------------------------------------

def _fold_empty_source(expr: A.Fold) -> Optional[A.Expr]:
    if isinstance(expr.source, A.Empty):
        return expr.init
    return None


rule_fold_empty_source = Rule(
    "fold-empty-source",
    _fold_empty_source,
    "a fold over the empty collection is its initial value",
    node_types=A.Fold,
)


def _fold_singleton_source(expr: A.Fold) -> Optional[A.Expr]:
    if not isinstance(expr.source, A.Singleton):
        return None
    # fold(f, i, {a}) --> f(i)(a); sound for every collection kind.
    return A.Apply(A.Apply(expr.func, expr.init), expr.source.expr)


rule_fold_singleton_source = Rule(
    "fold-singleton-source",
    _fold_singleton_source,
    "a fold over a singleton is one application of the combiner",
    node_types=A.Fold,
)


#: The rule order of the monadic normaliser — the only copy.
MONADIC_RULES = (
    rule_beta_reduction,
    rule_let_inline,
    rule_case_of_variant,
    rule_projection_reduction,
    rule_if_constant,
    rule_ext_empty_source,
    rule_ext_empty_body,
    rule_ext_filtered_source,
    rule_ext_singleton_source,
    rule_ext_singleton_body,
    rule_ext_union_source,
    rule_dead_branch_union,
    rule_fold_empty_source,
    rule_fold_singleton_source,
    rule_vertical_fusion,
    rule_filter_promotion,
    rule_horizontal_fusion,
)


def monadic_rule_set(max_iterations: int = 25) -> RuleSet:
    """Build the standard monadic rule set from :data:`MONADIC_RULES`."""
    return RuleSet("monadic", MONADIC_RULES, direction="bottom-up",
                   max_iterations=max_iterations)
