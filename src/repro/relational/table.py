"""The table: rows, indexes and statistics."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..core.errors import SchemaError
from .indexes import HashIndex, SortedIndex
from .schema import TableSchema
from .statistics import TableStatistics

__all__ = ["Table"]


class Table:
    """A heap of rows with a schema, optional indexes and statistics.

    Rows are stored as tuples in schema column order, and lookups return
    those tuples.  Primary-key uniqueness is enforced on insert.  Secondary
    indexes are created explicitly (the GDB stand-in creates them on join
    columns, mirroring "pre-computed indexes" on the server) and maintained
    incrementally.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self.rows: List[Tuple[object, ...]] = []
        self.hash_indexes: Dict[str, HashIndex] = {}
        self.sorted_indexes: Dict[str, SortedIndex] = {}
        self.statistics = TableStatistics(schema.name)
        self._primary_key_values: set = set()

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self.rows)

    # -- loading ---------------------------------------------------------------

    def insert(self, row: Dict[str, object]) -> None:
        """Insert one mapping row, enforcing types and primary-key uniqueness."""
        values = self.schema.validate_row(row)
        if self.schema.primary_key:
            key = tuple(values[self.schema.position(col)] for col in self.schema.primary_key)
            if key in self._primary_key_values:
                raise SchemaError(
                    f"duplicate primary key {key!r} in table {self.schema.name!r}"
                )
            self._primary_key_values.add(key)
        position = len(self.rows)
        self.rows.append(values)
        for column, index in self.hash_indexes.items():
            index.add(values[self.schema.position(column)], position)
        for column, index in self.sorted_indexes.items():
            index.add(values[self.schema.position(column)], position)

    def insert_many(self, rows: Iterable[Dict[str, object]]) -> int:
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    # -- indexes ------------------------------------------------------------------

    def create_hash_index(self, column: str) -> HashIndex:
        position = self.schema.position(column)
        index = HashIndex(column)
        index.rebuild(row[position] for row in self.rows)
        self.hash_indexes[column] = index
        return index

    def create_sorted_index(self, column: str) -> SortedIndex:
        position = self.schema.position(column)
        index = SortedIndex(column)
        index.rebuild(row[position] for row in self.rows)
        self.sorted_indexes[column] = index
        return index

    def has_index(self, column: str) -> bool:
        return column in self.hash_indexes or column in self.sorted_indexes

    # -- statistics -----------------------------------------------------------------

    def analyze(self) -> TableStatistics:
        """Refresh statistics over the current contents (ANALYZE)."""
        column_values = {
            column.name: [row[position] for row in self.rows]
            for position, column in enumerate(self.schema.columns)
        }
        self.statistics.refresh(column_values, len(self.rows))
        return self.statistics

    # -- access ------------------------------------------------------------------------

    def lookup(self, column: str, value: object) -> List[Tuple[object, ...]]:
        """Exact-match lookup, via an index when one exists: the matching rows."""
        if column in self.hash_indexes:
            return list(map(self.rows.__getitem__, self.hash_indexes[column].lookup(value)))
        if column in self.sorted_indexes:
            return list(map(self.rows.__getitem__, self.sorted_indexes[column].lookup(value)))
        position = self.schema.position(column)
        return [row for row in self.rows if row[position] == value]

    def range_lookup(self, column: str, low: Optional[object] = None,
                     high: Optional[object] = None, include_low: bool = True,
                     include_high: bool = True) -> List[Tuple[object, ...]]:
        """Range lookup through the column's sorted index: the matching rows."""
        positions = self.sorted_indexes[column].range(low, high, include_low, include_high)
        return list(map(self.rows.__getitem__, positions))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Table({self.schema.name}, {len(self.rows)} rows)"
