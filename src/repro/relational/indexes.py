"""Secondary indexes for the relational substrate.

Two index kinds are provided:

* :class:`HashIndex` — exact-match lookup on one column (what the Entrez-style
  "pre-computed indexes" and the SQL planner's equality lookups use),
* :class:`SortedIndex` — an ordered index supporting range scans, used by the
  planner for inequality predicates.

Indexes are maintained incrementally on insert and rebuilt on bulk load.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.errors import SQLExecutionError

__all__ = ["HashIndex", "SortedIndex"]


class HashIndex:
    """Maps a column value to the list of row positions holding that value."""

    def __init__(self, column: str):
        self.column = column
        self._buckets: Dict[object, List[int]] = {}

    def add(self, value: object, row_position: int) -> None:
        self._buckets.setdefault(value, []).append(row_position)

    def lookup(self, value: object) -> List[int]:
        return list(self._buckets.get(value, ()))

    def clear(self) -> None:
        self._buckets.clear()

    def rebuild(self, values: Iterable[object]) -> None:
        self.clear()
        for position, value in enumerate(values):
            self.add(value, position)

    def distinct_count(self) -> int:
        return len(self._buckets)

    def __len__(self) -> int:
        return sum(len(positions) for positions in self._buckets.values())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"HashIndex({self.column}, {self.distinct_count()} keys)"


class SortedIndex:
    """An ordered index supporting range scans, which answers what a scan of
    its column answers: NULLs are kept apart and lie in no range (only
    ``lookup(None)`` finds them), a value of another type equals no key, and
    a range bound of another type is an :class:`SQLExecutionError`.
    """

    def __init__(self, column: str):
        self.column = column
        self._keys: List[object] = []
        self._positions: List[int] = []
        self._nulls: List[int] = []
        self._dirty_entries: List[Tuple[object, int]] = []

    def add(self, value: object, row_position: int) -> None:
        # Inserts are buffered; the sorted arrays are refreshed lazily on read.
        self._dirty_entries.append((value, row_position))

    def _flush(self) -> None:
        if not self._dirty_entries:
            return
        entries = list(zip(self._keys, self._positions))
        for value, position in self._dirty_entries:
            if value is None:
                self._nulls.append(position)
            else:
                entries.append((value, position))
        entries.sort(key=itemgetter(0))
        self._keys = [key for key, _ in entries]
        self._positions = [position for _, position in entries]
        self._dirty_entries = []

    def rebuild(self, values: Iterable[object]) -> None:
        self._keys, self._positions, self._nulls = [], [], []
        self._dirty_entries = [(value, position) for position, value in enumerate(values)]
        self._flush()

    def lookup(self, value: object) -> List[int]:
        self._flush()
        if value is None:
            return list(self._nulls)
        try:
            left = bisect.bisect_left(self._keys, value)
            right = bisect.bisect_right(self._keys, value)
        except TypeError:  # another type than the column's: equal to no key
            return []
        return self._positions[left:right]

    def range(self, low: Optional[object] = None, high: Optional[object] = None,
              include_low: bool = True, include_high: bool = True) -> List[int]:
        """Row positions whose value lies in the given range (``None``: open)."""
        self._flush()
        try:
            if low is None:
                start = 0
            elif include_low:
                start = bisect.bisect_left(self._keys, low)
            else:
                start = bisect.bisect_right(self._keys, low)
            if high is None:
                end = len(self._keys)
            elif include_high:
                end = bisect.bisect_right(self._keys, high)
            else:
                end = bisect.bisect_left(self._keys, high)
        except TypeError:
            raise SQLExecutionError(f"cannot compare the values of {self.column!r} "
                                    f"with the range {low!r}..{high!r}") from None
        return self._positions[start:end]

    def __len__(self) -> int:
        self._flush()
        return len(self._keys) + len(self._nulls)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SortedIndex({self.column}, {len(self)} entries)"
