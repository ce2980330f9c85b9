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
  ``Session.bind`` and the relational and Entrez drivers column-wise: the
  directory is resolved once, the values are taken with one ``itemgetter``
  pass, and a set is deduped on its value tuples before any ``Record``
  exists, so no bound record is hashed (any other data goes row by row
  through ``lift_elements``, which resolves the directory once per run);
* **engine head** — the chunk lowering (``core.nrc.compile._record_plan``)
  resolves a record head's source slots once per source directory and dedups a
  set of heads on their value tuples (:func:`distinct_records`) before any
  ``Record`` exists;
* **wire** — ``server.wire`` ships a run's labels once, as a column-major
  ``rows`` block.

This module provides:

``RecordDirectory``
    The shared field-name → slot map, interned so identical field sets share
    one object.

``Record``
    The immutable record value used throughout the evaluator.

``distinct_records``
    Dedup-before-construct for records on one known directory.

Pickling contract: a directory pickles as its labels and comes back as the
interned directory of those labels, so a record read back from a spill file
(or ``copy``-ed) is on the same directory as its in-memory twins — record
equality is directory identity plus equal values.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from .errors import EvaluationError

__all__ = [
    "RecordDirectory",
    "Record",
    "directory_for",
    "distinct_records",
]


class RecordDirectory:
    """A shared, interned mapping from field labels to array slots.

    Directories are interned by field set: requesting a directory for the same
    labels (in any order) returns the same object, which is what lets the
    homogeneity fast path recognise that two records have the same layout by a
    single identity comparison.
    """

    _intern_lock = threading.Lock()
    _interned: Dict[Tuple[str, ...], "RecordDirectory"] = {}

    __slots__ = ("labels", "slots", "magic")

    def __init__(self, labels: Tuple[str, ...], magic: int):
        self.labels = labels
        self.slots = {label: index for index, label in enumerate(labels)}
        # The "magic number" of the paper: a per-directory token mixed into
        # offset computation.  Here it doubles as a stable identity for caches.
        self.magic = magic

    @classmethod
    def for_labels(cls, labels: Iterable[str]) -> "RecordDirectory":
        """Return the interned directory for ``labels`` (order-insensitive)."""
        key = tuple(sorted(labels))
        directory = cls._interned.get(key)
        if directory is not None:
            return directory
        with cls._intern_lock:
            directory = cls._interned.get(key)
            if directory is None:
                directory = cls(key, magic=len(cls._interned) + 1)
                cls._interned[key] = directory
            return directory

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


class Record:
    """An immutable record value: a shared directory plus a value array.

    Records are hashable when their field values are hashable, compare by
    field content, and can be used as set elements (CPL sets of records are
    the common case).
    """

    __slots__ = ("directory", "values", "_hash")

    def __init__(self, fields: Mapping[str, object] = None, _directory: RecordDirectory = None,
                 _values: Tuple[object, ...] = None):
        if _directory is not None:
            self.directory = _directory
            self.values = _values
        else:
            fields = fields or {}
            self.directory = RecordDirectory.for_labels(fields.keys())
            self.values = tuple(fields[label] for label in self.directory.labels)
        self._hash = None

    @classmethod
    def from_directory(cls, directory: RecordDirectory, values: Sequence[object]) -> "Record":
        """Build a record on an existing directory, checking the width.

        The three shape-once boundaries (module docstring) settle the width
        for a whole run and use the constructor's ``_directory``/``_values``
        form directly.
        """
        values = tuple(values)
        if len(values) != len(directory):
            raise EvaluationError(
                f"directory has {len(directory)} slots but {len(values)} values supplied"
            )
        return cls(_directory=directory, _values=values)

    # -- access ------------------------------------------------------------

    def project(self, label: str) -> object:
        """Plain Remy projection: directory lookup then array index."""
        return self.values[self.directory.slot_of(label)]

    __getitem__ = project

    def get(self, label: str, default: object = None) -> object:
        slot = self.directory.slots.get(label)
        if slot is None:
            return default
        return self.values[slot]

    def has_field(self, label: str) -> bool:
        return label in self.directory

    @property
    def labels(self) -> Tuple[str, ...]:
        return self.directory.labels

    def items(self) -> Iterator[Tuple[str, object]]:
        return zip(self.directory.labels, self.values)

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

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return self.directory is other.directory and self.values == other.values

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.directory.labels, self.values))
        return self._hash

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{label}={value!r}" for label, value in self.items())
        return f"[{inner}]"


def distinct_records(directory: RecordDirectory, rows: Iterable[Tuple[object, ...]],
                     seen) -> List[Record]:
    """The records of ``rows`` (value tuples on ``directory``) new to ``seen``.

    The seen-set key of a record on a known directory is its value tuple:
    ``Record.__eq__`` on one directory *is* ``values == values``, so the key
    groups exactly what a set of the records would, hashed and compared in C,
    and a ``Record`` is built for first occurrences only.  ``seen`` is any of
    the ``in``/``add`` seen-sets and must hold keys of this one directory.
    """
    out = []
    add = seen.add
    for values in rows:
        if values not in seen:
            add(values)
            out.append(Record(None, directory, values))
    return out
