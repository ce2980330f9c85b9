"""Type inference for CPL.

The paper stresses that *"when dealing with biological data sources, static
type information is both available and useful in specifying and optimizing
transformations"*.  This module infers types for CPL surface expressions using
Hindley–Milner style unification extended with **row variables**, so that open
record patterns (``[title = \\t, ...]``) and partial variant knowledge get
principal types instead of errors.

The checker works on the surface AST (before desugaring), because that is
where patterns and comprehensions — the constructs whose typing rules are
interesting — still exist.

**Invariant: a substitution never outlives one inference.**  The environment
a :class:`TypeChecker` keeps between calls holds *closed* schemes only:
``define`` and ``bind_value_type`` quantify every free variable of the
(already resolved) type they bind, and the types of bound tables are ground.
Nothing stored can mention a variable an earlier inference solved, so each
``infer`` / ``define`` runs in a fresh :class:`_Inference` with an empty
substitution and drops it on return: typing a query costs what that query
costs, however many the session typed before it, and two threads inferring
on one checker share nothing they write to.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .. import types as T
from ..errors import CPLTypeError
from ..nrc.prims import PRIMITIVES
from . import ast as S

__all__ = ["TypeScheme", "TypeEnvironment", "TypeChecker", "infer_expression_type"]


class TypeScheme:
    """A (possibly) polymorphic type: ``forall vars. body``."""

    def __init__(self, variables: Tuple[object, ...], body: T.Type):
        self.variables = tuple(variables)
        self.body = body

    @classmethod
    def monotype(cls, ty: T.Type) -> "TypeScheme":
        return cls((), ty)

    def instantiate(self) -> T.Type:
        """Replace quantified variables by fresh ones."""
        if not self.variables:
            return self.body
        subst: T.Substitution = {}
        for variable in self.variables:
            if isinstance(variable, T.TypeVar):
                subst[variable] = T.fresh_type_var()
            elif isinstance(variable, T.RowVar):
                subst[variable] = ({}, T.fresh_row_var())
        return T.apply_substitution(self.body, subst)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"TypeScheme({self.variables}, {self.body})"


class TypeEnvironment:
    """Maps names to type schemes, with lexical nesting."""

    def __init__(self, bindings: Optional[Dict[str, TypeScheme]] = None,
                 parent: Optional["TypeEnvironment"] = None):
        self.bindings = bindings or {}
        self.parent = parent

    def lookup(self, name: str) -> Optional[TypeScheme]:
        env: Optional[TypeEnvironment] = self
        while env is not None:
            if name in env.bindings:
                return env.bindings[name]
            env = env.parent
        return None

    def bind(self, name: str, scheme: TypeScheme) -> None:
        self.bindings[name] = scheme

    def child(self, bindings: Optional[Dict[str, TypeScheme]] = None) -> "TypeEnvironment":
        return TypeEnvironment(bindings or {}, parent=self)


def _generalise(ty: T.Type) -> TypeScheme:
    """Close ``ty`` (already resolved) over every variable free in it."""
    return TypeScheme(tuple(T.free_type_vars(ty)), ty)


_A = T.TypeVar("a")
#: Ad-hoc typings for the primitives CPL programs call by name, as closed
#: schemes: a lookup instantiates the one it names.
_PRIMITIVE_SIGNATURES: Dict[str, TypeScheme] = {
    name: _generalise(signature) for name, signature in {
        "count": T.FunctionType(T.SetType(_A), T.INT),
        "sum": T.FunctionType(T.SetType(_A), T.FLOAT),
        "avg": T.FunctionType(T.SetType(_A), T.FLOAT),
        "max": T.FunctionType(T.SetType(_A), _A),
        "min": T.FunctionType(T.SetType(_A), _A),
        "isempty": T.FunctionType(T.SetType(_A), T.BOOL),
        "distinct": T.FunctionType(T.SetType(_A), T.SetType(_A)),
        "flatten": T.FunctionType(T.SetType(T.SetType(_A)), T.SetType(_A)),
        "string_length": T.FunctionType(T.STRING, T.INT),
        "string_upper": T.FunctionType(T.STRING, T.STRING),
        "string_lower": T.FunctionType(T.STRING, T.STRING),
        "string_of_int": T.FunctionType(T.INT, T.STRING),
        "int_of_string": T.FunctionType(T.STRING, T.INT),
    }.items()
}


class TypeChecker:
    """Infers CPL types for surface expressions; keeps the environment only."""

    def __init__(self, environment: Optional[TypeEnvironment] = None):
        self.environment = environment or TypeEnvironment()

    def infer(self, expr: S.SExpr, environment: Optional[TypeEnvironment] = None) -> T.Type:
        """Infer and return the type of ``expr``."""
        inference = _Inference()
        ty = inference._infer(expr, environment or self.environment)
        return T.apply_substitution(ty, inference.subst)

    def define(self, name: str, expr: S.SExpr) -> T.Type:
        """Infer the type of a ``define`` body and bind the (generalised) scheme."""
        ty = self.infer(expr)
        self.environment.bind(name, _generalise(ty))
        return ty

    def bind_value_type(self, name: str, ty: T.Type) -> None:
        """Declare the type of an externally supplied value (e.g. a data source)."""
        self.environment.bind(name, _generalise(ty))


class _Inference:
    """One run of the inference algorithm: the substitution and its rules."""

    def __init__(self) -> None:
        self.subst: T.Substitution = {}

    # -- unification helper -----------------------------------------------------

    def _unify(self, left: T.Type, right: T.Type, context: str) -> None:
        try:
            self.subst = T.unify(left, right, self.subst)
        except CPLTypeError as error:
            raise CPLTypeError(f"{context}: {error}")

    # -- inference ---------------------------------------------------------------

    def _infer(self, expr: S.SExpr, env: TypeEnvironment) -> T.Type:
        if isinstance(expr, S.SLit):
            return self._literal_type(expr.value)
        if isinstance(expr, S.SVar):
            return self._infer_var(expr, env)
        if isinstance(expr, S.SRecord):
            return T.RecordType({label: self._infer(value, env)
                                 for label, value in expr.fields.items()})
        if isinstance(expr, S.SVariant):
            payload = T.UNIT if expr.value is None else self._infer(expr.value, env)
            return T.VariantType({expr.tag: payload}, row=T.fresh_row_var())
        if isinstance(expr, S.SCollection):
            return self._infer_collection(expr, env)
        if isinstance(expr, S.SComprehension):
            return self._infer_comprehension(expr, env)
        if isinstance(expr, S.SProject):
            return self._infer_projection(expr, env)
        if isinstance(expr, S.SApp):
            return self._infer_application(expr, env)
        if isinstance(expr, S.SLambda):
            return self._infer_lambda(expr, env)
        if isinstance(expr, S.SIf):
            return self._infer_if(expr, env)
        if isinstance(expr, S.SBinOp):
            return self._infer_binop(expr, env)
        if isinstance(expr, S.SUnaryOp):
            return self._infer_unaryop(expr, env)
        raise CPLTypeError(f"cannot infer a type for {type(expr).__name__}")

    def _literal_type(self, value: object) -> T.Type:
        if isinstance(value, bool):
            return T.BOOL
        if isinstance(value, int):
            return T.INT
        if isinstance(value, float):
            return T.FLOAT
        if isinstance(value, str):
            return T.STRING
        if value is None:
            return T.UNIT
        raise CPLTypeError(f"unknown literal {value!r}")

    def _infer_var(self, expr: S.SVar, env: TypeEnvironment) -> T.Type:
        scheme = env.lookup(expr.name) or _PRIMITIVE_SIGNATURES.get(expr.name)
        if scheme is not None:
            return scheme.instantiate()
        if expr.name in PRIMITIVES:
            # An untyped primitive: give it a fresh function type.
            return T.FunctionType(T.fresh_type_var(), T.fresh_type_var())
        raise CPLTypeError(f"unbound variable {expr.name!r}")

    def _infer_collection(self, expr: S.SCollection, env: TypeEnvironment) -> T.Type:
        element = T.fresh_type_var()
        for item in expr.elements:
            self._unify(element, self._infer(item, env),
                        "collection elements must share a type")
        return self._collection_type(expr.kind, element)

    @staticmethod
    def _collection_type(kind: str, element: T.Type) -> T.Type:
        constructor = {"set": T.SetType, "bag": T.BagType, "list": T.ListType}[kind]
        return constructor(element)

    def _infer_comprehension(self, expr: S.SComprehension, env: TypeEnvironment) -> T.Type:
        scope = env.child()
        for qualifier in expr.qualifiers:
            if isinstance(qualifier, S.Filter):
                condition_type = self._infer(qualifier.condition, scope)
                self._unify(condition_type, T.BOOL, "comprehension filter must be boolean")
            elif isinstance(qualifier, S.Generator):
                source_type = self._infer(qualifier.source, scope)
                element = T.fresh_type_var()
                self._unify_generator_source(source_type, element)
                self._bind_pattern(qualifier.pattern, element, scope)
        head_type = self._infer(expr.head, scope)
        return self._collection_type(expr.kind, head_type)

    def _unify_generator_source(self, source_type: T.Type, element: T.Type) -> None:
        source_type = T.apply_substitution(source_type, self.subst)
        # A generator may draw from a set, bag or list; try each in turn.
        for constructor in (T.SetType, T.BagType, T.ListType):
            try:
                self.subst = T.unify(source_type, constructor(element), self.subst)
                return
            except CPLTypeError:
                continue
        raise CPLTypeError(f"generator source must be a collection, got {source_type}")

    def _infer_projection(self, expr: S.SProject, env: TypeEnvironment) -> T.Type:
        subject_type = self._infer(expr.expr, env)
        field_type = T.fresh_type_var()
        expected = T.RecordType({expr.label: field_type}, row=T.fresh_row_var())
        self._unify(subject_type, expected,
                    f"projection .{expr.label} requires a record with that field")
        return field_type

    def _infer_application(self, expr: S.SApp, env: TypeEnvironment) -> T.Type:
        if (isinstance(expr.func, S.SVar) and expr.func.name == "fold"
                and env.lookup(expr.func.name) is None and len(expr.args) == 3):
            return self._infer_fold(expr, env)
        function_type = self._infer(expr.func, env)
        if not expr.args:
            result = T.fresh_type_var()
            self._unify(function_type, T.FunctionType(T.UNIT, result), "application")
            return result
        for arg in expr.args:
            argument_type = self._infer(arg, env)
            result = T.fresh_type_var()
            self._unify(function_type, T.FunctionType(argument_type, result),
                        "function applied to an argument of the wrong type")
            function_type = result
        return function_type

    def _infer_fold(self, expr: S.SApp, env: TypeEnvironment) -> T.Type:
        """``fold(f, init, coll)`` has type ``b`` when ``f : b -> a -> b``,
        ``init : b`` and ``coll`` is a collection of ``a``."""
        combiner_type = self._infer(expr.args[0], env)
        accumulator_type = self._infer(expr.args[1], env)
        source_type = self._infer(expr.args[2], env)
        element = T.fresh_type_var()
        self._unify_generator_source(source_type, element)
        expected = T.FunctionType(accumulator_type, T.FunctionType(element, accumulator_type))
        self._unify(combiner_type, expected,
                    "fold combiner must have type acc -> element -> acc")
        return T.apply_substitution(accumulator_type, self.subst)

    def _infer_lambda(self, expr: S.SLambda, env: TypeEnvironment) -> T.Type:
        argument = T.fresh_type_var()
        result = T.fresh_type_var()
        for clause in expr.clauses:
            scope = env.child()
            self._bind_pattern(clause.pattern, argument, scope)
            body_type = self._infer(clause.body, scope)
            self._unify(result, body_type, "function alternatives must return the same type")
        return T.FunctionType(argument, result)

    def _infer_if(self, expr: S.SIf, env: TypeEnvironment) -> T.Type:
        self._unify(self._infer(expr.cond, env), T.BOOL, "if condition must be boolean")
        then_type = self._infer(expr.then_branch, env)
        else_type = self._infer(expr.else_branch, env)
        self._unify(then_type, else_type, "if branches must have the same type")
        return then_type

    _NUMERIC_OPS = {"+", "-", "*", "/"}
    _COMPARISON_OPS = {"<", "<=", ">", ">="}

    def _infer_binop(self, expr: S.SBinOp, env: TypeEnvironment) -> T.Type:
        left = self._infer(expr.left, env)
        right = self._infer(expr.right, env)
        if expr.op in ("and", "or"):
            self._unify(left, T.BOOL, f"{expr.op} expects booleans")
            self._unify(right, T.BOOL, f"{expr.op} expects booleans")
            return T.BOOL
        if expr.op in ("=", "<>"):
            self._unify(left, right, "equality compares values of the same type")
            return T.BOOL
        if expr.op in self._COMPARISON_OPS:
            self._unify(left, right, "comparison operands must share a type")
            return T.BOOL
        if expr.op in self._NUMERIC_OPS:
            self._unify(left, right, "arithmetic operands must share a type")
            return left
        if expr.op == "^":
            self._unify(left, T.STRING, "^ concatenates strings")
            self._unify(right, T.STRING, "^ concatenates strings")
            return T.STRING
        raise CPLTypeError(f"unknown operator {expr.op!r}")

    def _infer_unaryop(self, expr: S.SUnaryOp, env: TypeEnvironment) -> T.Type:
        operand = self._infer(expr.operand, env)
        if expr.op == "not":
            self._unify(operand, T.BOOL, "not expects a boolean")
            return T.BOOL
        if expr.op == "-":
            return operand
        if expr.op == "!":
            target = T.fresh_type_var()
            self._unify(operand, T.RefType(target), "! dereferences a reference")
            return target
        raise CPLTypeError(f"unknown unary operator {expr.op!r}")

    # -- patterns ------------------------------------------------------------------

    def _bind_pattern(self, pattern: S.Pattern, subject: T.Type, env: TypeEnvironment) -> None:
        """Unify the pattern's shape with ``subject`` and bind its variables in ``env``."""
        if isinstance(pattern, S.PVar):
            env.bind(pattern.name, TypeScheme.monotype(subject))
            return
        if isinstance(pattern, S.PWildcard):
            return
        if isinstance(pattern, S.PLit):
            self._unify(subject, self._literal_type(pattern.value),
                        "literal pattern type mismatch")
            return
        if isinstance(pattern, S.PExpr):
            self._unify(subject, self._infer(pattern.expr, env),
                        "equality pattern type mismatch")
            return
        if isinstance(pattern, S.PRecord):
            field_types: Dict[str, T.Type] = {}
            for label in pattern.fields:
                field_types[label] = T.fresh_type_var()
            row = T.fresh_row_var() if pattern.open else None
            self._unify(subject, T.RecordType(field_types, row),
                        "record pattern does not match the subject's fields")
            for label, sub_pattern in pattern.fields.items():
                self._bind_pattern(sub_pattern, field_types[label], env)
            return
        if isinstance(pattern, S.PVariant):
            payload = T.fresh_type_var()
            expected = T.VariantType({pattern.tag: payload}, row=T.fresh_row_var())
            self._unify(subject, expected, "variant pattern tag not present in subject type")
            if pattern.pattern is not None:
                self._bind_pattern(pattern.pattern, payload, env)
            return
        raise CPLTypeError(f"unknown pattern type {type(pattern).__name__}")


def infer_expression_type(text: str,
                          bindings: Optional[Dict[str, T.Type]] = None) -> T.Type:
    """Parse ``text`` and infer its type, with ``bindings`` naming known sources.

    Convenience wrapper used throughout the tests and examples::

        infer_expression_type("{p.title | \\p <- DB}",
                              {"DB": parse_type("{[title: string, year: int]}")})
    """
    from .parser import parse_expression

    checker = TypeChecker()
    for name, ty in (bindings or {}).items():
        checker.bind_value_type(name, ty)
    return checker.infer(parse_expression(text))
