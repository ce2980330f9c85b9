"""Remy-style record representation.

Section 4 of the paper ("Optimizing Projections") describes the problem: CPL
queries are compiled knowing only that a record *has* some fields, not the
record's full layout, so field offsets cannot be fixed at compile time.  The
solution, due to Remy, represents a record as a pair of

* a pointer to a shared **directory** mapping field names to array slots, and
* an **array** holding the field values in directory order.

All records with the same field set share one directory, so a projection is a
directory lookup (to get the slot) followed by an array index.  When a
collection is *homogeneous* (all records share a directory — always true of
data coming from a relational source) "we can compute the offset only for the
first record and this offset can be reused for the remaining records"; the
paper reports a greater than two-fold speed-up.  The system settles a run of
same-shape rows once at each of three boundaries:

* **bind** — ``core.values.from_python`` lifts a flat table entering through
  ``Session.bind`` and the Entrez driver column-wise, and the relational
  driver lifts its ``(labels, value tuples)`` result the same way
  (``values._lift_table``): the directory is resolved once, the values are
  taken with one ``itemgetter`` pass, and a set is deduped on its value
  tuples before any ``Record`` exists, so no bound record is hashed (any
  other data goes element by element through ``lift_elements``);
* **engine head** — the chunk lowering (``core.nrc.compile._record_plan``)
  resolves a record head's source slots once per source directory and dedups a
  set of heads on their value tuples (:func:`distinct_records`) before any
  ``Record`` exists;
* **wire** — ``server.wire`` ships a run's labels once, as a column-major
  ``rows`` block.

**Layout.**  The pair is one object: a ``Record`` is a ``tuple`` subclass
with no slots of its own, laid out as ``(directory, v1, ..., vn)`` — field
``label`` at index ``directory.slots[label] + 1``.  Hash and equality are
the tuple's, so they run in C with no Python frame: two records are equal
exactly when their directory is the same object and their values are equal
pairwise, identity first and then ``==`` (so ``True``, ``1`` and ``1.0``
group, and a NaN object equals only itself).  The hot paths read the flat
tuple directly (``record[slot + 1]``, ``tuple.__iter__``), and a run of
rows on a settled directory becomes records in C through
:func:`records_on`.  Because indexing is the tuple's, labels go through
:meth:`Record.project` / :meth:`Record.get` only.  What a tuple does and a
record must not is refused: a record has no order and is not iterable,
and its ``len`` is its field count.

This module provides:

``RecordDirectory``
    The shared field-name → slot map, interned so identical field sets share
    one object while it is in use.

``Record``
    The immutable record value used throughout the evaluator.

``records_on`` / ``value_columns``
    The bulk builder (records from value tuples on one known directory)
    and its inverse (the field columns of such records).

``distinct_records``
    Dedup-before-construct for records on one known directory.

Pickling contract: a directory pickles as its labels and comes back as the
interned directory of those labels, and a record pickles as its directory
and values, so a record read back from a spill file (or ``copy``-ed) is a
``Record`` on the same directory as its in-memory twins, equal to them and
hashing alike.
"""

from __future__ import annotations

import threading
import weakref
from itertools import islice, repeat
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from .errors import EvaluationError

__all__ = [
    "RecordDirectory",
    "Record",
    "directory_for",
    "distinct_records",
    "records_on",
    "value_columns",
]


class RecordDirectory:
    """A shared, interned mapping from field labels to array slots.

    Directories are interned by field set while they are in use: requesting
    a directory for the same labels (in any order) returns the same object
    as long as anything holds it — a record, a compiled query, a decoded
    block — which is what lets the homogeneity fast path recognise that two
    records have the same layout by a single identity comparison.  The
    intern table holds each directory by a weak reference, so one that
    nothing uses any more is freed, and its entry with it: the label sets
    that arbitrary client texts name do not accumulate for the life of the
    process.
    """

    _intern_lock = threading.RLock()
    _interned: Dict[Tuple[str, ...], "weakref.KeyedRef"] = {}

    __slots__ = ("labels", "slots", "__weakref__")

    def __init__(self, labels: Tuple[str, ...]):
        self.labels = labels
        self.slots = {label: index for index, label in enumerate(labels)}

    @classmethod
    def for_labels(cls, labels: Iterable[str]) -> "RecordDirectory":
        """Return the interned directory for ``labels`` (order-insensitive)."""
        key = tuple(sorted(labels))
        ref = cls._interned.get(key)
        if ref is not None:
            directory = ref()
            if directory is not None:
                return directory
        with cls._intern_lock:
            ref = cls._interned.get(key)
            directory = None if ref is None else ref()
            if directory is None:
                directory = cls(key)
                cls._interned[key] = weakref.KeyedRef(directory, cls._forget, key)
            return directory

    @classmethod
    def _forget(cls, ref: "weakref.KeyedRef") -> None:
        """Drop a freed directory's entry, unless a new directory of its
        labels took the entry over first.  The lock is reentrant: a
        directory may be freed on a thread inside :meth:`for_labels`."""
        with cls._intern_lock:
            if cls._interned.get(ref.key) is ref:
                del cls._interned[ref.key]

    def __reduce__(self):
        return (RecordDirectory.for_labels, (self.labels,))

    def slot_of(self, label: str) -> int:
        """Return the array slot for ``label``.

        This is the *slow* step that the homogeneity optimization amortises.
        """
        try:
            return self.slots[label]
        except KeyError:
            raise EvaluationError(
                f"record has no field {label!r} (fields: {', '.join(self.labels)})"
            )

    def __contains__(self, label: str) -> bool:
        return label in self.slots

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RecordDirectory({', '.join(self.labels)})"


def directory_for(labels: Iterable[str]) -> RecordDirectory:
    """Module-level alias for :meth:`RecordDirectory.for_labels`."""
    return RecordDirectory.for_labels(labels)


class Record(tuple):
    """An immutable record value: one tuple, ``(directory, v1, ..., vn)``.

    Hash and equality are the tuple's, computed in C: the same directory
    object, then equal values.  Records are hashable when their field
    values are, and can be used as set elements (CPL sets of records are
    the common case).  A record has no order, is not iterable, and is
    indexed by label only through :meth:`project` / :meth:`get`; ``len``
    is its field count.
    """

    __slots__ = ()

    def __new__(cls, fields: Mapping[str, object] = None) -> "Record":
        fields = fields or {}
        directory = RecordDirectory.for_labels(fields)
        return tuple.__new__(cls, (directory, *map(fields.__getitem__, directory.labels)))

    @classmethod
    def from_directory(cls, directory: RecordDirectory, values: Sequence[object]) -> "Record":
        """Build a record on an existing directory, checking the width.

        The three shape-once boundaries (module docstring) settle the width
        for a whole run and build through :func:`records_on`.
        """
        values = tuple(values)
        if len(values) != len(directory):
            raise EvaluationError(
                f"directory has {len(directory)} slots but {len(values)} values supplied"
            )
        return tuple.__new__(cls, (directory, *values))

    def __reduce__(self):
        return (Record.from_directory, (self[0], self[1:]))

    # -- access ------------------------------------------------------------

    directory = property(itemgetter(0), doc="The shared :class:`RecordDirectory`.")
    values = property(itemgetter(slice(1, None)),
                      doc="The field values, in directory (label) order.")

    def project(self, label: str) -> object:
        """Plain Remy projection: directory lookup then array index."""
        return self[self[0].slot_of(label) + 1]

    def get(self, label: str, default: object = None) -> object:
        slot = self[0].slots.get(label)
        if slot is None:
            return default
        return self[slot + 1]

    def has_field(self, label: str) -> bool:
        return label in self[0]

    @property
    def labels(self) -> Tuple[str, ...]:
        return self[0].labels

    def items(self) -> Iterator[Tuple[str, object]]:
        return zip(self[0].labels, self[1:])

    def to_dict(self) -> Dict[str, object]:
        return dict(self.items())

    # -- construction of derived records ------------------------------------

    def with_fields(self, **updates: object) -> "Record":
        """Return a record with ``updates`` added or replaced."""
        fields = self.to_dict()
        fields.update(updates)
        return Record(fields)

    def without_fields(self, *labels: str) -> "Record":
        """Return a record with the given labels removed."""
        fields = {k: v for k, v in self.items() if k not in labels}
        return Record(fields)

    def restrict(self, labels: Iterable[str]) -> "Record":
        """Return a record keeping only ``labels`` (projection onto several fields)."""
        return Record({label: self.project(label) for label in labels})

    # -- what a record is not -----------------------------------------------

    def _refuse(self, *other: object):
        raise TypeError("a record has no order and is not iterable: "
                        "read its fields by label (project, get, items)")

    __lt__ = __le__ = __gt__ = __ge__ = __iter__ = __contains__ = _refuse

    def __len__(self) -> int:
        return tuple.__len__(self) - 1

    def __repr__(self) -> str:
        inner = ", ".join(f"{label}={value!r}" for label, value in self.items())
        return f"[{inner}]"


def records_on(directory: RecordDirectory,
               rows: Iterable[Tuple[object, ...]]) -> Iterator[Record]:
    """The records of ``rows`` (value tuples in ``directory``'s label
    order), each built in C with no Python frame and no width check: the
    caller has settled the run's shape."""
    return map(tuple.__new__, repeat(Record), map((directory,).__add__, rows))


def value_columns(records: Iterable[Record]) -> Iterator[Tuple[object, ...]]:
    """The field columns of ``records`` (all on one directory), in label
    order: the record tuples transposed in C, the directory column
    dropped."""
    return islice(zip(*map(tuple.__iter__, records)), 1, None)


def distinct_records(directory: RecordDirectory, rows: Iterable[Tuple[object, ...]],
                     seen) -> List[Record]:
    """The records of ``rows`` (value tuples on ``directory``) new to ``seen``.

    The seen-set key of a record on a known directory is its value tuple:
    record equality on one directory *is* ``values == values``, so the key
    groups exactly what a set of the records would, hashed and compared in C,
    and a ``Record`` is built for first occurrences only.  ``seen`` is any of
    the ``in``/``add`` seen-sets and must hold keys of this one directory.
    """
    fresh = []
    add = seen.add
    for values in rows:
        if values not in seen:
            add(values)
            fresh.append(values)
    return list(records_on(directory, fresh))
