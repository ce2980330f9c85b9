"""The CPL value model.

Mirrors the type system in :mod:`repro.core.types`: booleans, integers,
floats, strings, the unit value, and the constructors

* :class:`CSet` — sets (duplicate-eliminating, order-insensitive equality),
* :class:`CBag` — bags/multisets (duplicate-preserving, order-insensitive),
* :class:`CList` — lists (duplicate-preserving, order-sensitive),
* :class:`Record` (re-exported from :mod:`repro.core.records`),
* :class:`Variant` — tagged values,
* :class:`Ref` — object identities, used by the ACE driver.

All collection values are immutable and hashable, so nesting them arbitrarily
(sets of records of lists of variants ...) works without special cases, which
is the whole point of the paper's data model.

The module also provides :func:`from_python` / :func:`to_python` conversions
(drivers hand Kleisli plain Python data) and :func:`infer_type`, which computes
the CPL type of a value — used when registering data sources and in tests.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import types as T
from .errors import EvaluationError
from .records import Record, RecordDirectory, records_on, value_columns

__all__ = [
    "CSet",
    "CBag",
    "CList",
    "Record",
    "Variant",
    "Ref",
    "UNIT_VALUE",
    "Unit",
    "from_python",
    "lift_elements",
    "lift_rows",
    "to_python",
    "infer_type",
    "empty_like",
    "singleton_like",
    "union_like",
    "iter_collection",
    "make_collection",
]


class Unit:
    """The single value of type ``unit``."""

    _instance: Optional["Unit"] = None

    def __new__(cls) -> "Unit":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Unit)

    def __hash__(self) -> int:
        return hash("unit-value")


UNIT_VALUE = Unit()


class CSet:
    """An immutable set value iterating in first-occurrence insertion order.

    Iteration order is deterministic for a given construction order, which
    keeps query results stable across runs — important for tests and for the
    printer.  The first-occurrence order is **load-bearing**: the streaming
    backend's set-kind dedup-as-you-go (``compile._dedup_set_chunks``) yields
    elements in production order and relies on the eagerly built set
    iterating identically; changing this order breaks stream/execute parity
    for every set-kind pipeline.
    """

    __slots__ = ("_elements", "_hash", "_lookup")
    kind = "set"

    def __init__(self, elements: Iterable[object] = ()):
        # A dict keeps the first of equal keys, in first-occurrence order.
        self._elements: Tuple[object, ...] = tuple(dict.fromkeys(elements))
        self._hash: Optional[int] = None
        #: Hashed view of the elements, built by the first membership test:
        #: most sets (a 12 000-row bound table) are only ever iterated.
        self._lookup: Optional[frozenset] = None

    @classmethod
    def _of_distinct(cls, elements: Tuple[object, ...]) -> "CSet":
        """The set of ``elements``, already pairwise distinct, in their order:
        no dedup pass, so no element is hashed."""
        value = cls.__new__(cls)
        value._elements = elements
        value._hash = None
        value._lookup = None
        return value

    def __iter__(self) -> Iterator[object]:
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, item: object) -> bool:
        lookup = self._lookup
        if lookup is None:
            lookup = self._lookup = frozenset(self._elements)
        try:
            return item in lookup
        except TypeError:   # an unhashable probe: compare one by one
            return item in self._elements

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSet):
            return NotImplemented
        return frozenset(self._elements) == frozenset(other._elements)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._elements))
        return self._hash

    def __repr__(self) -> str:
        return "{%s}" % ", ".join(repr(element) for element in self._elements)

    def union(self, other: "CSet") -> "CSet":
        return CSet(self._elements + tuple(other))

    def map(self, function) -> "CSet":
        return CSet(function(element) for element in self._elements)

    def filter(self, predicate) -> "CSet":
        return CSet(element for element in self._elements if predicate(element))


class CBag:
    """An immutable bag (multiset) value; equality ignores order but keeps counts."""

    __slots__ = ("_elements", "_hash")
    kind = "bag"

    def __init__(self, elements: Iterable[object] = ()):
        self._elements: Tuple[object, ...] = tuple(elements)
        self._hash: Optional[int] = None

    def __iter__(self) -> Iterator[object]:
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, item: object) -> bool:
        return item in self._elements

    def counts(self) -> Dict[object, int]:
        counts: Dict[object, int] = {}
        for element in self._elements:
            counts[element] = counts.get(element, 0) + 1
        return counts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CBag):
            return NotImplemented
        return self.counts() == other.counts()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.counts().items()))
        return self._hash

    def __repr__(self) -> str:
        return "{|%s|}" % ", ".join(repr(element) for element in self._elements)

    def union(self, other: "CBag") -> "CBag":
        return CBag(self._elements + tuple(other))

    def map(self, function) -> "CBag":
        return CBag(function(element) for element in self._elements)

    def filter(self, predicate) -> "CBag":
        return CBag(element for element in self._elements if predicate(element))


class CList:
    """An immutable list value; equality is order-sensitive."""

    __slots__ = ("_elements", "_hash")
    kind = "list"

    def __init__(self, elements: Iterable[object] = ()):
        self._elements: Tuple[object, ...] = tuple(elements)
        self._hash: Optional[int] = None

    def __iter__(self) -> Iterator[object]:
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, item: object) -> bool:
        return item in self._elements

    def __getitem__(self, index: int) -> object:
        return self._elements[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CList):
            return NotImplemented
        return self._elements == other._elements

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._elements)
        return self._hash

    def __repr__(self) -> str:
        return "[|%s|]" % ", ".join(repr(element) for element in self._elements)

    def union(self, other: "CList") -> "CList":
        """List 'union' is concatenation (the list monad's plus)."""
        return CList(self._elements + tuple(other))

    def map(self, function) -> "CList":
        return CList(function(element) for element in self._elements)

    def filter(self, predicate) -> "CList":
        return CList(element for element in self._elements if predicate(element))


class Variant:
    """A tagged value ``<tag = value>`` of a variant type."""

    __slots__ = ("tag", "value")

    def __init__(self, tag: str, value: object = UNIT_VALUE):
        self.tag = tag
        self.value = value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Variant):
            return NotImplemented
        return self.tag == other.tag and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.tag, self.value))

    def __repr__(self) -> str:
        if isinstance(self.value, Unit):
            return f"<{self.tag}>"
        return f"<{self.tag}={self.value!r}>"


class Ref:
    """An object identity: a (class, identifier) pair optionally resolvable via a store.

    The paper extends CPL with a reference type, a dereferencing operation and
    a reference pattern for sources (like ACE) with object identity; it does
    *not* allow creating or updating references from the language, so ``Ref``
    is immutable and resolution goes through the store it was minted by.
    """

    __slots__ = ("class_name", "identifier", "_store")

    def __init__(self, class_name: str, identifier: object, store: Optional[object] = None):
        self.class_name = class_name
        self.identifier = identifier
        self._store = store

    def deref(self) -> object:
        """Return the value this reference points at."""
        if self._store is None:
            raise EvaluationError(
                f"reference {self} is not attached to a store and cannot be dereferenced"
            )
        return self._store.resolve(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ref):
            return NotImplemented
        return (self.class_name, self.identifier) == (other.class_name, other.identifier)

    def __hash__(self) -> int:
        return hash((self.class_name, self.identifier))

    def __repr__(self) -> str:
        return f"#{self.class_name}:{self.identifier}"


# ---------------------------------------------------------------------------
# Collection polymorphism helpers (used by the NRC evaluator)
# ---------------------------------------------------------------------------

_COLLECTION_CLASSES = {"set": CSet, "bag": CBag, "list": CList}


def empty_like(kind: str):
    """Return the empty collection of the given kind ('set' | 'bag' | 'list')."""
    try:
        return _COLLECTION_CLASSES[kind]()
    except KeyError:
        raise EvaluationError(f"unknown collection kind {kind!r}")


def singleton_like(kind: str, value: object):
    """Return the singleton collection of the given kind containing ``value``."""
    try:
        return _COLLECTION_CLASSES[kind]((value,))
    except KeyError:
        raise EvaluationError(f"unknown collection kind {kind!r}")


def union_like(kind: str, left, right):
    """Union/append two collections of the same kind."""
    cls = _COLLECTION_CLASSES.get(kind)
    if cls is None:
        raise EvaluationError(f"unknown collection kind {kind!r}")
    if not isinstance(left, cls) or not isinstance(right, cls):
        raise EvaluationError(
            f"union of {kind} expects two {cls.__name__} values, "
            f"got {type(left).__name__} and {type(right).__name__}"
        )
    return left.union(right)


def make_collection(kind: str, elements: Iterable[object]):
    """Build a collection of the given kind from ``elements``."""
    cls = _COLLECTION_CLASSES.get(kind)
    if cls is None:
        raise EvaluationError(f"unknown collection kind {kind!r}")
    return cls(elements)


def iter_collection(value) -> Iterator[object]:
    """Iterate any CPL collection value (or raise if it is not a collection)."""
    if isinstance(value, (CSet, CBag, CList)):
        return iter(value)
    raise EvaluationError(f"expected a collection value, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# Conversion to and from plain Python data
# ---------------------------------------------------------------------------

def from_python(data: object, list_as: str = "list") -> object:
    """Convert plain Python data into CPL values.

    * ``dict`` → :class:`Record` (its keys must be strings: they are the labels)
    * ``set`` / ``frozenset`` → :class:`CSet`
    * ``list`` / ``tuple`` → list (or the collection named by ``list_as``)
    * 2-tuple ``("<tag>", value)`` is *not* special-cased; build variants explicitly.
    * scalars pass through.

    A ``list``/``tuple`` of exact ``dict``s with one set of string keys is a
    table: one key check, one ``itemgetter`` pass onto the interned
    directory and one type check; when every value is an exact scalar it is
    lifted column-wise, with, for ``list_as="set"``, a dedup on the value
    tuples before any :class:`Record` exists, and otherwise row by row
    (:func:`lift_rows`).  Anything else is lifted element by element
    (:func:`lift_elements`); all three agree element for element.
    """
    if isinstance(data, (Record, CSet, CBag, CList, Variant, Ref, Unit)):
        return data
    if isinstance(data, Mapping):
        fields = {}
        for key, value in data.items():
            if not isinstance(key, str):
                raise EvaluationError(
                    f"cannot convert a dict with key {key!r} into a record: "
                    "record labels are strings")
            fields[key] = from_python(value, list_as)
        return Record(fields)
    if isinstance(data, (set, frozenset)):
        return CSet(from_python(element, list_as) for element in data)
    if isinstance(data, (list, tuple)):
        return _lift_collection(list_as, data, list_as)
    if data is None:
        return UNIT_VALUE
    if isinstance(data, (bool, int, float, str, bytes)):
        return data
    raise EvaluationError(f"cannot convert {type(data).__name__} into a CPL value")


#: Exact types :func:`from_python` passes through and :func:`infer_type`
#: gives a constant type: a record of these needs no per-field work.
_FLAT_FIELD_TYPES = frozenset((bool, int, float, str, bytes))
_DIRECTORY = itemgetter(0)  # of a record: its directory


def _lift_collection(kind: str, rows: Iterable[object], list_as: str = "list"):
    """``make_collection(kind, lift_elements(rows, list_as))``, through
    :func:`_lift_table` when ``rows`` are exact ``dict``s on one set of
    string keys (:func:`from_python`).  The Entrez driver lifts its link
    rows as ``_lift_collection("set", rows)``."""
    table = _flat_table(rows)
    if table is None:
        return make_collection(kind, lift_elements(rows, list_as))
    return _lift_table(kind, *table, list_as)


def _lift_table(kind: str, labels: Tuple[str, ...], rows: Sequence[Tuple[object, ...]],
                list_as: str = "list"):
    """``make_collection(kind, lift_rows(labels, rows, list_as))``,
    column-wise when every value is an exact scalar.  The relational driver
    lifts a result, its unique output names and one value tuple per row,
    this way.

    A set keeps each value tuple's first occurrence: on one directory
    tuple ``==`` *is* record equality (so ``True``, ``1`` and ``1.0``
    group, and a NaN only with itself), so the distinct rows are exactly
    the set's elements and no ``Record`` is hashed.
    """
    directory, in_label_order = _directory_of(labels)
    values = list(map(in_label_order, rows)) if in_label_order else rows
    if not _FLAT_FIELD_TYPES.issuperset(map(type, chain.from_iterable(values))):
        return make_collection(kind, lift_rows(labels, rows, list_as))
    if kind == "set":
        values = dict.fromkeys(values)
    # Records as a list, so the collection's tuple has a known length: it
    # then reuses a freed tuple of that size, where ``tuple(map(...))``
    # grows by resizing and leaves CPython's tuple free lists filling up.
    records = list(records_on(directory, values))
    if kind == "set":
        return CSet._of_distinct(tuple(records))
    return make_collection(kind, records)


def _flat_table(rows: Iterable[object]
                ) -> Optional[Tuple[Tuple[str, ...], List[Tuple[object, ...]]]]:
    """``(labels, value tuples)``, the labels sorted, of a non-empty run of
    exact ``dict``s on one set of string keys, else ``None``."""
    if not isinstance(rows, (list, tuple)) or not rows \
            or not {dict}.issuperset(map(type, rows)):
        return None
    keys = tuple(rows[0])
    if not keys or not {str}.issuperset(map(type, keys)) \
            or not {len(keys)}.issuperset(map(len, rows)):
        return None
    labels = tuple(sorted(keys))
    try:
        if len(labels) > 1:
            return labels, list(map(itemgetter(*labels), rows))
        return labels, list(zip(map(itemgetter(labels[0]), rows)))
    except KeyError:    # same width, other keys
        return None


def lift_elements(elements: Iterable[object], list_as: str = "list") -> Iterator[object]:
    """:func:`from_python` of each element, one at a time: the path for data
    that is not one table of ``dict``s on one set of string keys."""
    return (from_python(element, list_as) for element in elements)


def lift_rows(labels: Tuple[str, ...], rows: Iterable[Tuple[object, ...]],
              list_as: str = "list") -> Iterator[Record]:
    """The records of ``rows``, value tuples under the unique ``labels``, one
    at a time on one interned directory: a row of exact scalars as it is,
    any other row through :func:`from_python` value by value (a ``None``
    becomes the unit value), as its ``dict`` would lift."""
    directory, in_label_order = _directory_of(labels)
    for values in map(in_label_order, rows) if in_label_order else rows:
        if not _FLAT_FIELD_TYPES.issuperset(map(type, values)):
            values = [from_python(value, list_as) for value in values]
        yield tuple.__new__(Record, (directory, *values))


def _directory_of(labels: Tuple[str, ...]
                  ) -> Tuple[RecordDirectory, Optional[Callable[[tuple], tuple]]]:
    """The directory of the unique ``labels``, and the ``tuple -> tuple``
    that puts a row under ``labels`` in its label order (``None`` when the
    row already is)."""
    directory = RecordDirectory.for_labels(labels)
    order = tuple(map(labels.index, directory.labels))
    if order == tuple(range(len(order))):
        return directory, None
    return directory, itemgetter(*order)


def to_python(value: object) -> object:
    """Convert a CPL value back into plain Python data (records → dicts, etc.)."""
    if isinstance(value, Record):
        return {label: to_python(field) for label, field in value.items()}
    if isinstance(value, CSet):
        return [to_python(element) for element in value]
    if isinstance(value, (CBag, CList)):
        return [to_python(element) for element in value]
    if isinstance(value, Variant):
        return {"<tag>": value.tag, "<value>": to_python(value.value)}
    if isinstance(value, Ref):
        return {"<ref>": value.class_name, "<id>": value.identifier}
    if isinstance(value, Unit):
        return None
    return value


def infer_type(value: object) -> T.Type:
    """Compute the CPL type of a value.

    Heterogeneous collections unify their element types where possible (open
    records absorb extra fields); an empty collection gets a fresh element
    type variable.
    """
    if isinstance(value, bool):
        return T.BOOL
    if isinstance(value, int):
        return T.INT
    if isinstance(value, float):
        return T.FLOAT
    if isinstance(value, (str, bytes)):
        return T.STRING
    if isinstance(value, Unit):
        return T.UNIT
    if isinstance(value, Record):
        return T.RecordType({label: infer_type(field) for label, field in value.items()})
    if isinstance(value, Variant):
        return T.VariantType({value.tag: infer_type(value.value)}, row=T.fresh_row_var())
    if isinstance(value, Ref):
        return T.RefType(T.fresh_type_var())
    if isinstance(value, (CSet, CBag, CList)):
        element_types = _distinct_element_types(value)
        if element_types:
            element = _merge_element_types(element_types)
        else:
            element = T.fresh_type_var()
        constructor = {"set": T.SetType, "bag": T.BagType, "list": T.ListType}[value.kind]
        return constructor(element)
    raise EvaluationError(f"cannot infer a CPL type for {type(value).__name__}")


def _distinct_element_types(elements: Iterable[object]) -> List[T.Type]:
    """The elements' types in order, a flat row shape typed once.

    A record whose fields are all exact scalars has a type fixed by its
    shape — the directory plus the tuple of field types — with no type
    variable in it, and merging that type a second time learns nothing: the
    repeats are dropped, so a homogeneous table costs one ``RecordType``.
    ``[a = 1]`` and ``[a = "x"]`` share a directory but not a shape.

    A table of one such shape is recognised first, by C-level column passes.
    """
    first = next(iter(elements), None)
    if type(first) is Record:
        kinds = tuple(map(type, first.values))
        if (_FLAT_FIELD_TYPES.issuperset(kinds)
                and {Record}.issuperset(map(type, elements))
                and {first.directory}.issuperset(map(_DIRECTORY, elements))
                and all({kind}.issuperset(map(type, column)) for kind, column
                        in zip(kinds, value_columns(elements)))):
            return [infer_type(first)]
    types: List[T.Type] = []
    flat_shapes = set()
    for element in elements:
        if type(element) is Record:
            shape = (element.directory, *map(type, element.values))
            if shape in flat_shapes:
                continue
            if _FLAT_FIELD_TYPES.issuperset(shape[1:]):
                flat_shapes.add(shape)
        types.append(infer_type(element))
    return types


def _merge_element_types(element_types: List[T.Type]) -> T.Type:
    """Merge element types of a collection, tolerating variant-case differences."""
    merged = element_types[0]
    subst: T.Substitution = {}
    for ty in element_types[1:]:
        if ty == merged:
            continue    # a homogeneous table: nothing to learn from this row
        try:
            subst = T.unify(merged, ty, subst)
            merged = T.apply_substitution(merged, subst)
        except Exception:
            # Heterogeneous in an irreconcilable way (e.g. different variant
            # tags with closed rows): fall back to a fresh variable rather than
            # failing; drivers dealing with loose external data rely on this.
            return T.fresh_type_var()
    return T.apply_substitution(merged, subst)
