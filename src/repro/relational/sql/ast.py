"""AST for the SQL subset."""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = [
    "ColumnRef", "SelectItem", "TableRef", "Comparison", "InList", "Like",
    "SelectStatement", "OrderItem",
]


class ColumnRef:
    """A possibly table-qualified column reference."""

    __slots__ = ("table", "column")

    def __init__(self, column: str, table: Optional[str] = None):
        self.table = table
        self.column = column

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ColumnRef)
                and (self.table, self.column) == (other.table, other.column))

    def __hash__(self) -> int:
        return hash((self.table, self.column))

    def __repr__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


class SelectItem:
    """One item of the select list: a column (or ``*``) with an optional alias."""

    __slots__ = ("column", "alias", "star")

    def __init__(self, column: Optional[ColumnRef] = None, alias: Optional[str] = None,
                 star: bool = False):
        self.column = column
        self.alias = alias
        self.star = star

    def __repr__(self) -> str:
        if self.star:
            return "*"
        rendered = repr(self.column)
        return f"{rendered} AS {self.alias}" if self.alias else rendered


class TableRef:
    """A table in the FROM list, with an optional alias."""

    __slots__ = ("name", "alias")

    def __init__(self, name: str, alias: Optional[str] = None):
        self.name = name
        self.alias = alias or name

    def __repr__(self) -> str:
        return self.name if self.alias == self.name else f"{self.name} {self.alias}"


class Comparison:
    """``left op right`` where either side is a :class:`ColumnRef` or a constant."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: object, right: object):
        self.op = op
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"{self.left!r} {self.op} {self.right!r}"


class InList:
    """``column IN (v1, v2, ...)``."""

    __slots__ = ("column", "values")

    def __init__(self, column: ColumnRef, values: Sequence[object]):
        self.column = column
        self.values = list(values)

    def __repr__(self) -> str:
        return f"{self.column!r} IN {tuple(self.values)!r}"


class Like:
    """``column LIKE pattern`` with ``%`` and ``_`` wildcards."""

    __slots__ = ("column", "pattern")

    def __init__(self, column: ColumnRef, pattern: str):
        self.column = column
        self.pattern = pattern

    def __repr__(self) -> str:
        return f"{self.column!r} LIKE {self.pattern!r}"


class OrderItem:
    """One ORDER BY key."""

    __slots__ = ("column", "descending")

    def __init__(self, column: ColumnRef, descending: bool = False):
        self.column = column
        self.descending = descending

    def __repr__(self) -> str:
        return f"{self.column!r} {'DESC' if self.descending else 'ASC'}"


class SelectStatement:
    """A parsed SELECT statement."""

    def __init__(self, select_items: Sequence[SelectItem], tables: Sequence[TableRef],
                 predicates: Sequence[object] = (), order_by: Sequence[OrderItem] = (),
                 limit: Optional[int] = None, distinct: bool = False):
        self.select_items = list(select_items)
        self.tables = list(tables)
        self.predicates = list(predicates)
        self.order_by = list(order_by)
        self.limit = limit
        self.distinct = distinct

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"SelectStatement(select={self.select_items}, from={self.tables}, "
                f"where={self.predicates})")
