"""Built-in primitives available to NRC (and therefore CPL) programs.

The paper notes that comprehension syntax is derived from structural recursion,
which is what gives the language aggregates (summation, count, ...) that plain
comprehensions cannot express.  Here those operations are exposed as named
primitives; the CPL parser turns ``sum(...)``, ``count(...)`` etc. into
:class:`~repro.core.nrc.ast.PrimCall` nodes that dispatch into this table.

Primitives are plain Python callables over CPL values.  They are grouped into:

* arithmetic and comparison,
* boolean connectives,
* string operations (including ``^`` concatenation from the paper's examples),
* collection operations derived from structural recursion (aggregates,
  ``flatten``, ``distinct``, conversions between set/bag/list, sorting),
* membership and emptiness tests,
* ``index`` / ``probe``, the on-the-fly index the optimizer's caching stage
  puts under a correlated subquery (:mod:`repro.core.optimizer.caching`).
"""

from __future__ import annotations

import functools
import operator as _operator
from typing import Callable, Dict, Iterable, List

from ..errors import EvaluationError
from ..records import RecordDirectory
from ..values import CBag, CList, CSet, Record, UNIT_VALUE, Variant, iter_collection, make_collection

__all__ = ["PRIMITIVES", "register_primitive", "lookup_primitive",
           "lookup_primitive_raw", "fused_primitive_with_const",
           "primitive_names", "KeyIndex", "build_index"]

PRIMITIVES: Dict[str, Callable] = {}

#: The unwrapped implementations and their declared arities, for compilers
#: that verify the call-site arity statically (see lookup_primitive_raw).
_RAW_PRIMITIVES: Dict[str, tuple] = {}


def register_primitive(name: str, arity: int = None):
    """Decorator registering a callable as the primitive ``name``."""
    def decorator(function: Callable) -> Callable:
        @functools.wraps(function)
        def checked(*args):
            if arity is not None and len(args) != arity:
                raise EvaluationError(
                    f"primitive {name!r} expects {arity} argument(s), got {len(args)}"
                )
            return function(*args)

        PRIMITIVES[name] = checked
        _RAW_PRIMITIVES[name] = (function, arity)
        return function
    return decorator


def lookup_primitive(name: str) -> Callable:
    try:
        return PRIMITIVES[name]
    except KeyError:
        raise EvaluationError(f"unknown primitive {name!r}")


def lookup_primitive_raw(name: str, arity: int) -> Callable:
    """The unwrapped primitive, for call sites of statically known arity.

    A compiler that sees ``PrimCall(name, args)`` knows ``len(args)`` at
    compile time; when it matches the declared arity, the per-call arity
    recheck in the ``checked`` wrapper is provably redundant, so fused hot
    loops may burn the raw function in (value-type checks and all other
    semantics live in the function itself and are untouched).  Unknown
    names, declaration-free primitives and mismatched arities return the
    checked wrapper — the dynamic path, raising exactly as before.
    """
    entry = _RAW_PRIMITIVES.get(name)
    if entry is not None and entry[1] == arity:
        return entry[0]
    return lookup_primitive(name)


def fused_primitive_with_const(name: str, const: object,
                               const_is_second: bool) -> "Callable | None":
    """A one-argument form of ``primitive(item, const)`` (or the mirror),
    specialized at compile time — or ``None`` when no *sound* specialization
    exists.

    The compile-to-closures philosophy applied to primitive operands: when
    one operand is a literal, its value checks run once at compile time and
    only the varying operand is checked per element.  Error behavior is
    bit-identical to the generic path — same exceptions, same messages, same
    operand order in messages — because a constant that would fail (or
    complicate) the generic checks simply declines specialization and the
    call site keeps the generic two-argument form.
    """
    if name in ("add", "sub", "mul", "mod"):
        if isinstance(const, bool) or not isinstance(const, (int, float)):
            return None
        if name == "add":
            if const_is_second:
                return lambda item: _require_number(item, "add") + const
            return lambda item: const + _require_number(item, "add")
        if name == "sub":
            if const_is_second:
                return lambda item: _require_number(item, "sub") - const
            return lambda item: const - _require_number(item, "sub")
        if name == "mul":
            if const_is_second:
                return lambda item: _require_number(item, "mul") * const
            return lambda item: const * _require_number(item, "mul")
        # mod: the denominator's zero check stays wherever the item is.
        if const_is_second:
            if const == 0:
                return None  # keep the generic per-element raise
            return lambda item: _require_number(item, "mod") % const

        def mod_by_item(item):
            divisor = _require_number(item, "mod")
            if divisor == 0:
                raise EvaluationError("modulo by zero")
            return const % divisor

        return mod_by_item
    if name in ("eq", "neq"):
        if name == "eq":
            if const_is_second:
                return lambda item: item == const
            return lambda item: const == item
        if const_is_second:
            return lambda item: item != const
        return lambda item: const != item
    if name in ("lt", "le", "gt", "ge"):
        if isinstance(const, bool) or not isinstance(const, (int, float)):
            return None  # string/mixed comparisons keep the generic checks
        compare = {"lt": _operator.lt, "le": _operator.le,
                   "gt": _operator.gt, "ge": _operator.ge}[name]
        if const_is_second:
            def fused_compare(item):
                if isinstance(item, bool) or not isinstance(item, (int, float)):
                    _raise_comparable(name, item, const, True)
                return compare(item, const)
        else:
            def fused_compare(item):
                if isinstance(item, bool) or not isinstance(item, (int, float)):
                    _raise_comparable(name, item, const, False)
                return compare(const, item)
        return fused_compare
    return None


def _raise_comparable(op: str, item: object, const: object,
                      const_is_second: bool):
    """The generic _comparable error, reproduced for fused comparisons."""
    if isinstance(item, bool):
        raise EvaluationError(f"{op} is not defined on booleans")
    if const_is_second:
        first_type, second_type = type(item).__name__, type(const).__name__
    else:
        first_type, second_type = type(const).__name__, type(item).__name__
    raise EvaluationError(
        f"{op} expects two numbers or two strings, "
        f"got {first_type} and {second_type}")


def primitive_names() -> List[str]:
    return sorted(PRIMITIVES)


# ---------------------------------------------------------------------------
# Arithmetic and comparison
# ---------------------------------------------------------------------------

def _require_number(value, context: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise EvaluationError(f"{context} expects a number, got {type(value).__name__}")
    return value


@register_primitive("add", arity=2)
def _add(a, b):
    return _require_number(a, "add") + _require_number(b, "add")


@register_primitive("sub", arity=2)
def _sub(a, b):
    return _require_number(a, "sub") - _require_number(b, "sub")


@register_primitive("mul", arity=2)
def _mul(a, b):
    return _require_number(a, "mul") * _require_number(b, "mul")


@register_primitive("div", arity=2)
def _div(a, b):
    a = _require_number(a, "div")
    b = _require_number(b, "div")
    if b == 0:
        raise EvaluationError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        return a // b
    return a / b


@register_primitive("mod", arity=2)
def _mod(a, b):
    a = _require_number(a, "mod")
    b = _require_number(b, "mod")
    if b == 0:
        raise EvaluationError("modulo by zero")
    return a % b


@register_primitive("neg", arity=1)
def _neg(a):
    return -_require_number(a, "neg")


@register_primitive("eq", arity=2)
def _eq(a, b):
    return a == b


@register_primitive("neq", arity=2)
def _neq(a, b):
    return a != b


def _comparable(a, b, op: str):
    if isinstance(a, bool) or isinstance(b, bool):
        raise EvaluationError(f"{op} is not defined on booleans")
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a, b
    if isinstance(a, str) and isinstance(b, str):
        return a, b
    raise EvaluationError(
        f"{op} expects two numbers or two strings, got {type(a).__name__} and {type(b).__name__}"
    )


@register_primitive("lt", arity=2)
def _lt(a, b):
    a, b = _comparable(a, b, "lt")
    return a < b


@register_primitive("le", arity=2)
def _le(a, b):
    a, b = _comparable(a, b, "le")
    return a <= b


@register_primitive("gt", arity=2)
def _gt(a, b):
    a, b = _comparable(a, b, "gt")
    return a > b


@register_primitive("ge", arity=2)
def _ge(a, b):
    a, b = _comparable(a, b, "ge")
    return a >= b


# ---------------------------------------------------------------------------
# Boolean connectives
# ---------------------------------------------------------------------------

def _require_bool(value, context: str) -> bool:
    if not isinstance(value, bool):
        raise EvaluationError(f"{context} expects a boolean, got {type(value).__name__}")
    return value


@register_primitive("and", arity=2)
def _and(a, b):
    return _require_bool(a, "and") and _require_bool(b, "and")


@register_primitive("or", arity=2)
def _or(a, b):
    return _require_bool(a, "or") or _require_bool(b, "or")


@register_primitive("not", arity=1)
def _not(a):
    return not _require_bool(a, "not")


# ---------------------------------------------------------------------------
# String operations
# ---------------------------------------------------------------------------

def _require_string(value, context: str) -> str:
    if not isinstance(value, str):
        raise EvaluationError(f"{context} expects a string, got {type(value).__name__}")
    return value


@register_primitive("string_concat", arity=2)
def _string_concat(a, b):
    return _require_string(a, "string_concat") + _require_string(b, "string_concat")


@register_primitive("string_length", arity=1)
def _string_length(a):
    return len(_require_string(a, "string_length"))


@register_primitive("string_upper", arity=1)
def _string_upper(a):
    return _require_string(a, "string_upper").upper()


@register_primitive("string_lower", arity=1)
def _string_lower(a):
    return _require_string(a, "string_lower").lower()


@register_primitive("string_contains", arity=2)
def _string_contains(a, b):
    return _require_string(b, "string_contains") in _require_string(a, "string_contains")


@register_primitive("string_startswith", arity=2)
def _string_startswith(a, b):
    return _require_string(a, "string_startswith").startswith(_require_string(b, "string_startswith"))


@register_primitive("string_split", arity=2)
def _string_split(a, sep):
    return CList(_require_string(a, "string_split").split(_require_string(sep, "string_split")))


@register_primitive("string_of_int", arity=1)
def _string_of_int(a):
    _require_number(a, "string_of_int")
    return str(a)


@register_primitive("int_of_string", arity=1)
def _int_of_string(a):
    try:
        return int(_require_string(a, "int_of_string"))
    except ValueError:
        raise EvaluationError(f"int_of_string: {a!r} is not an integer literal")


# ---------------------------------------------------------------------------
# Collection operations (structural recursion)
# ---------------------------------------------------------------------------

def _numbers_of(collection) -> List[float]:
    values = []
    for element in iter_collection(collection):
        values.append(_require_number(element, "aggregate"))
    return values


@register_primitive("count", arity=1)
def _count(collection):
    return len(list(iter_collection(collection)))


@register_primitive("sum", arity=1)
def _sum(collection):
    return sum(_numbers_of(collection))


@register_primitive("avg", arity=1)
def _avg(collection):
    values = _numbers_of(collection)
    if not values:
        raise EvaluationError("avg of an empty collection")
    return sum(values) / len(values)


def _extreme(name: str, collection, better) -> object:
    """Python's ``max``/``min`` of the elements (the first one no later one
    is ``better`` than), but two values that do not compare are an
    :class:`EvaluationError` naming their classes, as in :func:`_comparable`."""
    values = list(iter_collection(collection))
    if not values:
        raise EvaluationError(f"{name} of an empty collection")
    best = values[0]
    for value in values[1:]:
        try:
            if better(value, best):
                best = value
        except TypeError:
            raise EvaluationError(
                f"{name} expects comparable values, got "
                f"{type(best).__name__} and {type(value).__name__}") from None
    return best


@register_primitive("max", arity=1)
def _max(collection):
    return _extreme("max", collection, _operator.gt)


@register_primitive("min", arity=1)
def _min(collection):
    return _extreme("min", collection, _operator.lt)


@register_primitive("isempty", arity=1)
def _isempty(collection):
    if isinstance(collection, KeyIndex):
        return collection.rows == 0
    return len(list(iter_collection(collection))) == 0


@register_primitive("member", arity=2)
def _member(value, collection):
    if isinstance(collection, CSet):
        # ``eq`` is ``==``, which no value that differs from itself (NaN)
        # satisfies; a hashed lookup would find it by identity.
        return value == value and value in collection
    return any(element == value for element in iter_collection(collection))


@register_primitive("flatten", arity=1)
def _flatten(collection):
    kind = collection.kind
    elements: List[object] = []
    for inner in iter_collection(collection):
        elements.extend(iter_collection(inner))
    return make_collection(kind, elements)


@register_primitive("distinct", arity=1)
def _distinct(collection):
    seen = []
    for element in iter_collection(collection):
        if element not in seen:
            seen.append(element)
    return make_collection(collection.kind, seen)


@register_primitive("set_of", arity=1)
def _set_of(collection):
    return CSet(iter_collection(collection))


@register_primitive("bag_of", arity=1)
def _bag_of(collection):
    return CBag(iter_collection(collection))


@register_primitive("list_of", arity=1)
def _list_of(collection):
    return CList(iter_collection(collection))


@register_primitive("setunion", arity=2)
def _setunion(a, b):
    return CSet(list(iter_collection(a)) + list(iter_collection(b)))


@register_primitive("setdiff", arity=2)
def _setdiff(a, b):
    b_elements = list(iter_collection(b))
    return CSet(x for x in iter_collection(a) if x not in b_elements)


@register_primitive("setintersect", arity=2)
def _setintersect(a, b):
    b_elements = list(iter_collection(b))
    return CSet(x for x in iter_collection(a) if x in b_elements)


def _sort_key(value):
    """A total order over CPL values, used by sort and by deterministic printing."""
    if isinstance(value, bool):
        return (0, value)
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    if isinstance(value, Record):
        return (3, tuple((label, _sort_key(field)) for label, field in value.items()))
    if isinstance(value, Variant):
        return (4, value.tag, _sort_key(value.value))
    if isinstance(value, (CSet, CBag, CList)):
        return (5, tuple(sorted(_sort_key(element) for element in value)))
    return (6, repr(value))


@register_primitive("sort", arity=1)
def _sort(collection):
    return CList(sorted(iter_collection(collection), key=_sort_key))


@register_primitive("head", arity=1)
def _head(collection):
    elements = list(iter_collection(collection))
    if not elements:
        raise EvaluationError("head of an empty collection")
    return elements[0]


@register_primitive("nth", arity=2)
def _nth(collection, index):
    elements = list(iter_collection(collection))
    index = _require_number(index, "nth")
    if not isinstance(index, int) or index < 0 or index >= len(elements):
        raise EvaluationError(f"nth: index {index} out of range (size {len(elements)})")
    return elements[index]


@register_primitive("take", arity=2)
def _take(collection, n):
    n = _require_number(n, "take")
    elements = list(iter_collection(collection))
    return make_collection(collection.kind, elements[: int(n)])


@register_primitive("fail", arity=1)
def _fail(message):
    raise EvaluationError(str(message))


# ---------------------------------------------------------------------------
# The on-the-fly index (Section 4: "indices are built on-the-fly")
# ---------------------------------------------------------------------------

class KeyIndex:
    """Rows grouped under a key, each group in the order the rows arrived.

    Built by ``index``, read by ``probe``.  A key equal to another by ``eq``
    (Python ``==``: ``1``, ``1.0`` and ``True``; ``0.0`` and ``-0.0``) shares
    its group; a key that differs from itself (NaN) is in no group, since no
    ``eq`` on it holds.  ``rows`` counts every row offered, keyed or not.
    ``groups`` answers ``get(key)``: a dict of lists, or under a spill manager
    the compiled ``index``'s :class:`~repro.kleisli.spill.SpilledIndex`.
    """

    __slots__ = ("groups", "rows")

    def __init__(self, groups, rows: int):
        self.groups = groups
        self.rows = rows

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<index: {self.rows} rows>"


_KEYED_ROW = RecordDirectory.for_labels(("key", "row"))
_NO_ROWS = CList()


def build_index(pairs, budget=None, spilled=None) -> KeyIndex:
    """Group ``(key, row)`` pairs by key: the one index builder.  The compiled
    ``index`` passes the run's memory budget (charged in quanta for the rows
    kept in memory) or its spill store (the groups live there instead)."""
    groups: Dict[object, list] = {}
    rows = kept = 0
    for key, row in pairs:
        rows += 1
        if key != key:      # a dict finds a key by identity before it asks ==
            continue
        if spilled is not None:
            spilled.add(key, row)
            continue
        kept += 1
        groups.setdefault(key, []).append(row)
        if budget is not None and kept % 256 == 0:
            budget.charge_elements(256)
    if spilled is not None:
        return KeyIndex(spilled, rows)
    if budget is not None and kept % 256:
        budget.charge_elements(kept % 256)
    return KeyIndex({key: CList(group) for key, group in groups.items()}, rows)


def _keyed_pairs(keyed_rows):
    for pair in iter_collection(keyed_rows):
        if not isinstance(pair, Record) or pair.directory is not _KEYED_ROW:
            raise EvaluationError("index expects [key = ..., row = ...] records")
        yield pair.values


@register_primitive("index", arity=1)
def _index(keyed_rows):
    """Group ``[key = k, row = r]`` records by ``k``."""
    return build_index(_keyed_pairs(keyed_rows))


@register_primitive("probe", arity=2)
def _probe(index, key):
    """The rows of ``index`` whose key equals ``key``, as a list."""
    if not isinstance(index, KeyIndex):
        raise EvaluationError(f"probe expects an index, got {type(index).__name__}")
    rows = index.groups.get(key) if key == key else None
    if rows is None:
        return _NO_ROWS
    return rows if type(rows) is CList else CList(rows)


# ---------------------------------------------------------------------------
# Record / variant helpers used by generated code
# ---------------------------------------------------------------------------

@register_primitive("record_labels", arity=1)
def _record_labels(record):
    if not isinstance(record, Record):
        raise EvaluationError("record_labels expects a record")
    return CList(record.labels)


@register_primitive("variant_tag", arity=1)
def _variant_tag(value):
    if not isinstance(value, Variant):
        raise EvaluationError("variant_tag expects a variant")
    return value.tag


@register_primitive("variant_value", arity=1)
def _variant_value(value):
    if not isinstance(value, Variant):
        raise EvaluationError("variant_value expects a variant")
    return value.value


# ---------------------------------------------------------------------------
# Structural recursion derivatives (Section 2: "functions such as transitive
# closure, that cannot be expressed through comprehensions alone")
# ---------------------------------------------------------------------------

@register_primitive("tclosure", arity=1)
def _tclosure(relation):
    from .structural import transitive_closure

    return transitive_closure(relation)


@register_primitive("nest", arity=3)
def _nest(collection, group_label, by_label):
    from .structural import nest

    if not isinstance(group_label, str) or not isinstance(by_label, str):
        raise EvaluationError("nest expects field labels as strings")
    return nest(collection, group_label, by_label)


@register_primitive("unnest", arity=2)
def _unnest(collection, group_label):
    from .structural import unnest

    if not isinstance(group_label, str):
        raise EvaluationError("unnest expects the nested field label as a string")
    return unnest(collection, group_label)
