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
data coming from a relational source) the directory lookup can be done once
for the whole collection and the slot reused; the paper reports a greater than
two-fold speed-up from this fast path.

This module provides:

``RecordDirectory``
    The shared field-name → slot map, interned so identical field sets share
    one object.

``Record``
    The immutable record value used throughout the evaluator.

``ProjectionCursor``
    The homogeneity fast path: resolves a field to a slot against the first
    record it sees and reuses the slot while the directory stays the same.

``plain_project`` / ``cursor_project``
    The two projection strategies benchmarked in experiment E1.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import EvaluationError

__all__ = [
    "RecordDirectory",
    "Record",
    "ProjectionCursor",
    "plain_project",
    "cursor_project",
    "directory_for",
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
        """Build a record directly on an existing directory (fast path for drivers).

        The two boundaries where rows enter and leave the system resolve
        the directory once per run of same-shape rows and build each record
        on it through the constructor's ``_directory``/``_values`` form,
        the width being settled for the whole run:
        ``core.values.lift_elements`` on the way in (``Session.bind``, the
        relational and Entrez drivers) and the ``rows`` block decoder of
        ``server.wire`` on the way out.
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
        if self.directory is other.directory:
            return self.values == other.values
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.directory.labels, self.values))
        return self._hash

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{label}={value!r}" for label, value in self.items())
        return f"[{inner}]"


class ProjectionCursor:
    """The homogeneity fast path for record projection.

    A cursor is created per (mapped collection, field) pair.  The first record
    it sees pays the directory lookup; subsequent records that share the same
    directory reuse the cached slot and skip the lookup entirely.  If a record
    with a *different* directory shows up (a heterogeneous collection), the
    cursor transparently falls back to the plain lookup, so correctness never
    depends on the homogeneity hint.
    """

    __slots__ = ("label", "_directory", "_slot", "hits", "misses")

    def __init__(self, label: str):
        self.label = label
        self._directory: Optional[RecordDirectory] = None
        self._slot: Optional[int] = None
        self.hits = 0
        self.misses = 0

    def project(self, record: Record) -> object:
        directory = record.directory
        if directory is self._directory:
            self.hits += 1
            return record.values[self._slot]
        self.misses += 1
        self._directory = directory
        self._slot = directory.slot_of(self.label)
        return record.values[self._slot]

    __call__ = project


def plain_project(records: Iterable[Record], label: str) -> List[object]:
    """Project ``label`` from every record using plain Remy projection."""
    return [record.values[record.directory.slot_of(label)] for record in records]


def cursor_project(records: Iterable[Record], label: str) -> List[object]:
    """Project ``label`` using the homogeneity-aware cursor (experiment E1)."""
    cursor = ProjectionCursor(label)
    return [cursor.project(record) for record in records]
