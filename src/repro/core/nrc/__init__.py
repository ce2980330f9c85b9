"""NRC: the nested relational calculus / monad algebra underlying CPL.

CPL comprehensions are translated into NRC (see :mod:`repro.core.cpl.desugar`)
because the rewrite rules that drive optimization — vertical and horizontal
loop fusion, filter promotion, projection reduction, pushdown to drivers —
are much simpler to state on the ``ext`` construct than on comprehensions
(Section 4 of the paper).
"""

from .ast import (
    Expr,
    Const,
    Var,
    Lam,
    Apply,
    RecordExpr,
    Project,
    VariantExpr,
    Case,
    Empty,
    Singleton,
    Union,
    Ext,
    Fold,
    IfThenElse,
    PrimCall,
    Let,
    Deref,
    Scan,
    Cached,
    fresh_var,
    free_variables,
    substitute,
)
from .eval import Evaluator, Environment
from .compile import CompiledQuery, ExecutionMode, compile_term
from .rewrite import Rule, RuleSet, RewriteEngine, RewriteStats

__all__ = [
    "Expr", "Const", "Var", "Lam", "Apply", "RecordExpr", "Project",
    "VariantExpr", "Case", "Empty", "Singleton", "Union", "Ext", "Fold",
    "IfThenElse", "PrimCall", "Let", "Deref", "Scan", "Cached",
    "fresh_var", "free_variables", "substitute",
    "Evaluator", "Environment",
    "CompiledQuery", "ExecutionMode", "compile_term",
    "Rule", "RuleSet", "RewriteEngine", "RewriteStats",
]
