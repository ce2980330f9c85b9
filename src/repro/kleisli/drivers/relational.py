"""The relational (Sybase-style) driver.

Request vocabulary (what :class:`~repro.core.nrc.ast.Scan` nodes carry):

``{"query": "<sql text>"}``
    Ship SQL to the server verbatim (the fully pushed-down form of E4).
``{"table": "<name>"}``
    Scan a whole table.
``{"table": "<name>", "columns": [...], "where": [{"column", "op", "value"}...]}``
    Scan with server-side projection and selection (the partial pushdown form).

The database answers ``(labels, rows)`` (:meth:`Database.rows`), locally or
over the simulated link: its output names and one value tuple per row.  The
driver builds the records on the labels' interned directory, so no row is a
``dict`` on the way.  Results come back as a set of CPL records.  When
``lazy`` is enabled the driver returns a
:class:`~repro.kleisli.tokens.TokenStream` of the records one at a time so
the evaluator can pipeline (fast first response); materialising consumers
are unaffected.

The driver only calls the :class:`~repro.relational.Database` it is given, and
names the class only in annotations: importing this module does not import
the relational engine, which loads when whoever builds the database imports
it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ...core.errors import DriverError
from ...core.values import _lift_table, lift_rows
from ...net.remote import RemoteSource
from ..tokens import TokenStream
from .base import Driver, DriverFunction

if TYPE_CHECKING:
    from ...relational.database import Database

__all__ = ["RelationalDriver"]

_WHERE_OPS = {"=": "=", "eq": "=", "<>": "<>", "neq": "<>", "<": "<", "<=": "<=",
              ">": ">", ">=": ">=", "is distinct from": "is distinct from"}


class RelationalDriver(Driver):
    """Drives a :class:`repro.relational.Database`, optionally through a remote wrapper."""

    capabilities = frozenset({"sql", "columns", "where"})
    #: The native execute_batch ships the whole batch in one remote
    #: round-trip (call_batch), so no per-request latency decomposition of
    #: a batch is sound (see Driver.batch_single_round_trip).
    batch_single_round_trip = True

    def __init__(self, name: str, database: Database,
                 remote: Optional[RemoteSource] = None, lazy: bool = False):
        super().__init__(name)
        self.database = database
        self.remote = remote
        self.lazy = lazy

    @classmethod
    def with_latency(cls, name: str, database: Database, latency: float = 0.02,
                     max_concurrent_requests: int = 5, lazy: bool = False) -> "RelationalDriver":
        """Build a driver whose database sits behind a simulated remote link."""
        remote = RemoteSource(name, database.rows, latency=latency,
                              max_concurrent_requests=max_concurrent_requests)
        return cls(name, database, remote=remote, lazy=lazy)

    # -- request handling -----------------------------------------------------------

    def _execute(self, request: Dict[str, object]):
        if "query" in request:
            rows = self._run(str(request["query"]))
        elif "table" in request:
            rows = self._run(self._build_sql(request))
        else:
            raise DriverError(
                f"relational driver {self.name!r} needs a 'query' or 'table' request, "
                f"got {sorted(request)}"
            )
        return self._rows_to_result(rows)

    def execute_batch(self, requests):
        """Native batched fetch: one remote round-trip for the whole batch.

        Each request is compiled to SQL up front, the statements ship
        together over :meth:`~repro.net.remote.RemoteSource.call_batch`
        (one admission slot, one latency charge), and results come back in
        request order with the same per-request shape as :meth:`execute` —
        the chunked pipeline's ``Driver.execute_batch`` contract.  Without
        a remote wrapper the database is local and looping is already
        optimal, so the default applies.
        """
        if self.remote is None:
            return [self.execute(request) for request in requests]
        statements = []
        for request in requests:
            self.request_count += 1
            request = dict(request)
            if "query" in request:
                statements.append(str(request["query"]))
            elif "table" in request:
                statements.append(self._build_sql(request))
            else:
                raise DriverError(
                    f"relational driver {self.name!r} needs a 'query' or 'table' "
                    f"request, got {sorted(request)}"
                )
        return [self._rows_to_result(rows)
                for rows in self.remote.call_batch(statements)]

    def _rows_to_result(self, result: Tuple[Tuple[str, ...], Sequence[tuple]]):
        labels, rows = result
        if self.lazy:
            return TokenStream(lift_rows(labels, rows), kind="set")
        return _lift_table("set", labels, rows)

    def _run(self, sql: str) -> Tuple[Tuple[str, ...], List[tuple]]:
        if self.remote is not None:
            return self.remote.call(sql)
        return self.database.rows(sql)

    def _build_sql(self, request: Dict[str, object]) -> str:
        table = str(request["table"])
        columns = request.get("columns")
        select_list = ", ".join(columns) if columns else "*"
        sql = f"select {select_list} from {table}"
        conditions = []
        for condition in request.get("where", []):
            column = condition["column"]
            op = _WHERE_OPS.get(str(condition.get("op", "=")))
            if op is None:
                raise DriverError(f"unsupported pushdown operator {condition.get('op')!r}")
            conditions.append(f"{column} {op} {self._literal(condition['value'])}")
        if conditions:
            sql += " where " + " and ".join(conditions)
        return sql

    @staticmethod
    def _literal(value: object) -> str:
        if isinstance(value, str):
            escaped = value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(value, bool):
            raise DriverError("boolean literals cannot be pushed into SQL")
        if value is None:
            return "null"
        if isinstance(value, float) and not math.isfinite(value):
            raise DriverError(f"{value!r} cannot be pushed into SQL")
        return repr(value)

    # -- CPL integration ---------------------------------------------------------------

    def cpl_functions(self) -> List[DriverFunction]:
        return [
            DriverFunction(self.name, {}, argument_is_record=True,
                           doc=f"send a raw request (e.g. [query = ...]) to {self.name}"),
            DriverFunction(f"{self.name}-Tab", {}, argument_key="table",
                           doc=f"scan a whole table of {self.name} by name"),
        ]

    def collection_names(self) -> List[str]:
        return self.database.table_names()

    def cardinality(self, collection: str) -> Optional[int]:
        if self.database.has_table(collection):
            return len(self.database.table(collection))
        return None
