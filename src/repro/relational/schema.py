"""Relational schema objects: columns and table schemas."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import SchemaError

__all__ = ["Column", "TableSchema"]

_VALID_TYPES = ("int", "float", "string", "bool")

_PYTHON_TYPES = {
    "int": (int,),
    "float": (int, float),
    "string": (str,),
    "bool": (bool,),
}


class Column:
    """A typed column, optionally nullable."""

    __slots__ = ("name", "type", "nullable")

    def __init__(self, name: str, type: str = "string", nullable: bool = True):
        if type not in _VALID_TYPES:
            raise SchemaError(f"unknown column type {type!r} (expected one of {_VALID_TYPES})")
        self.name = name
        self.type = type
        self.nullable = nullable

    def validate(self, value: object) -> object:
        """Check (and lightly coerce) a value against this column's type."""
        if value is None:
            if not self.nullable:
                raise SchemaError(f"column {self.name!r} is not nullable")
            return None
        if self.type == "bool":
            if not isinstance(value, bool):
                raise SchemaError(f"column {self.name!r} expects a bool, got {value!r}")
            return value
        if self.type == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(f"column {self.name!r} expects an int, got {value!r}")
            return value
        if self.type == "float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"column {self.name!r} expects a number, got {value!r}")
            return float(value)
        if not isinstance(value, str):
            raise SchemaError(f"column {self.name!r} expects a string, got {value!r}")
        return value

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        suffix = "" if self.nullable else " not null"
        return f"{self.name} {self.type}{suffix}"


class TableSchema:
    """The schema of a table: ordered columns plus an optional primary key."""

    def __init__(self, name: str, columns: Sequence[Column],
                 primary_key: Optional[Sequence[str]] = None):
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        self.column_index: Dict[str, int] = {}
        for index, column in enumerate(self.columns):
            if column.name in self.column_index:
                raise SchemaError(f"duplicate column {column.name!r} in table {name!r}")
            self.column_index[column.name] = index
        self.primary_key: Tuple[str, ...] = tuple(primary_key or ())
        for key_column in self.primary_key:
            if key_column not in self.column_index:
                raise SchemaError(
                    f"primary key column {key_column!r} is not a column of table {name!r}"
                )

    @classmethod
    def from_spec(cls, name: str, spec: Dict[str, str],
                  primary_key: Optional[Sequence[str]] = None) -> "TableSchema":
        """Build a schema from ``{"column": "type"}`` shorthand."""
        return cls(name, [Column(col, ty) for col, ty in spec.items()], primary_key)

    @property
    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    def column(self, name: str) -> Column:
        try:
            return self.columns[self.column_index[name]]
        except KeyError:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return name in self.column_index

    def position(self, name: str) -> int:
        try:
            return self.column_index[name]
        except KeyError:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def validate_row(self, row: Dict[str, object]) -> Tuple[object, ...]:
        """Validate a mapping row and return it as a tuple in column order."""
        unknown = set(row) - set(self.column_index)
        if unknown:
            raise SchemaError(f"row has unknown columns {sorted(unknown)} for table {self.name!r}")
        values: List[object] = []
        for column in self.columns:
            values.append(column.validate(row.get(column.name)))
        return tuple(values)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        cols = ", ".join(repr(column) for column in self.columns)
        return f"TableSchema({self.name}: {cols})"
