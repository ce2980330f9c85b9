"""The database: a catalog of tables plus the SQL entry point."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import SQLExecutionError, SchemaError
from .schema import TableSchema
from .table import Table

__all__ = ["Database"]


class Database:
    """A named collection of tables with a tiny catalog.

    The Kleisli relational driver holds one of these per "server" it is
    connected to, and sends it SQL text through :meth:`rows`.
    """

    def __init__(self, name: str = "db"):
        self.name = name
        self.tables: Dict[str, Table] = {}

    # -- schema management --------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self.tables:
            raise SchemaError(f"table {schema.name!r} already exists in database {self.name!r}")
        table = Table(schema)
        self.tables[schema.name] = table
        return table

    def create_table_from_spec(self, name: str, spec: Dict[str, str],
                               primary_key: Optional[Sequence[str]] = None) -> Table:
        return self.create_table(TableSchema.from_spec(name, spec, primary_key))

    def drop_table(self, name: str) -> None:
        if name not in self.tables:
            raise SchemaError(f"cannot drop unknown table {name!r}")
        del self.tables[name]

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise SQLExecutionError(f"unknown table {name!r} in database {self.name!r}")

    def has_table(self, name: str) -> bool:
        return name in self.tables

    def table_names(self) -> List[str]:
        return sorted(self.tables)

    # -- maintenance -----------------------------------------------------------------

    def analyze(self) -> Dict[str, object]:
        """Refresh statistics on every table; return a summary."""
        return {name: table.analyze().as_dict() for name, table in sorted(self.tables.items())}

    # -- querying ---------------------------------------------------------------------

    def rows(self, text: str) -> Tuple[Tuple[str, ...], List[Tuple[object, ...]]]:
        """Parse and execute a SQL statement: ``(labels, rows)``, the output
        names (unique) and one value tuple per row, in their order."""
        from .sql.executor import execute_sql

        return execute_sql(self, text)

    def sql(self, text: str) -> List[Dict[str, object]]:
        """:meth:`rows` with each row as a mapping from output name to value."""
        labels, rows = self.rows(text)
        return [dict(zip(labels, row)) for row in rows]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Database({self.name}, tables={self.table_names()})"
