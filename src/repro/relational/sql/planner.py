"""Query planner for the SQL subset.

The planner turns a parsed :class:`SelectStatement` into a small plan tree:

* per-table access paths — an index lookup when an equality predicate meets a
  hash index, an index range scan for inequalities over a sorted index, and a
  filtered full scan otherwise;
* a join order chosen greedily by estimated cardinality (statistics-driven,
  as the paper expects of the server Kleisli pushes joins to);
* hash joins for equi-join predicates (``=``, or ``IS NOT DISTINCT FROM``,
  under which NULL keys meet), nested-loop joins (filtered by the predicates
  they cover) otherwise;
* projection, DISTINCT, ORDER BY and LIMIT on top.

:func:`explain_query` renders the chosen plan as text; tests use it to verify
that index access and hash joins are actually selected.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ...core.errors import SQLExecutionError
from ..database import Database
from ..table import Table
from .ast import ColumnRef, Comparison, InList, Like, SelectStatement, TableRef
from .parser import parse_sql

__all__ = [
    "plan_query", "explain_query",
    "ScanNode", "HashJoinNode", "NestedLoopJoinNode",
    "ProjectNode", "DistinctNode", "OrderNode", "LimitNode", "PlanNode",
]


_EQUI_JOIN_OPS = ("=", "is not distinct from")


class PlanNode:
    """Base class of plan nodes."""

    def explain(self, indent: int = 0) -> str:
        raise NotImplementedError


class ScanNode(PlanNode):
    """Read one table (by alias), applying single-table predicates.

    ``index_column`` / ``index_value`` request an index equality lookup;
    ``range_column`` / bounds request a sorted-index range scan; otherwise the
    node is a filtered full scan.
    """

    def __init__(self, alias: str, table: Table, predicates: Sequence[object],
                 index_column: Optional[str] = None, index_value: object = None,
                 range_column: Optional[str] = None,
                 range_bounds: Optional[Tuple[object, object, bool, bool]] = None):
        self.alias = alias
        self.table = table
        self.predicates = list(predicates)
        self.index_column = index_column
        self.index_value = index_value
        self.range_column = range_column
        self.range_bounds = range_bounds

    @property
    def access_path(self) -> str:
        if self.index_column is not None:
            return f"index lookup on {self.index_column}"
        if self.range_column is not None:
            return f"index range scan on {self.range_column}"
        return "full scan"

    def estimated_rows(self) -> float:
        statistics = self.table.statistics
        rows = statistics.row_count or len(self.table)
        if self.index_column is not None:
            return max(1.0, statistics.estimate_equality_matches(self.index_column, rows))
        selectivity = 1.0
        for predicate in self.predicates:
            if isinstance(predicate, Comparison) and predicate.op == "=":
                selectivity *= 0.1
            else:
                selectivity *= 0.5
        return max(1.0, rows * selectivity)

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        preds = f" filter={self.predicates}" if self.predicates else ""
        return f"{pad}Scan {self.table.name} as {self.alias} [{self.access_path}]{preds}"


class HashJoinNode(PlanNode):
    """Equi-join: build a hash table on the right input's key, probe with the
    left.  ``op`` is the join predicate's: ``=`` or ``is not distinct from``."""

    def __init__(self, left: PlanNode, right: PlanNode, left_key: ColumnRef,
                 right_key: ColumnRef, op: str, residual: Sequence[object] = ()):
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self.residual = list(residual)
        self.op = op

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}HashJoin {self.left_key!r} {self.op} {self.right_key!r}"]
        lines.append(self.left.explain(indent + 1))
        lines.append(self.right.explain(indent + 1))
        return "\n".join(lines)


class NestedLoopJoinNode(PlanNode):
    """Cartesian product filtered by the given predicates."""

    def __init__(self, left: PlanNode, right: PlanNode, predicates: Sequence[object] = ()):
        self.left = left
        self.right = right
        self.predicates = list(predicates)

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}NestedLoopJoin filter={self.predicates}"]
        lines.append(self.left.explain(indent + 1))
        lines.append(self.right.explain(indent + 1))
        return "\n".join(lines)


class ProjectNode(PlanNode):
    """Project the select list out of joined rows."""

    def __init__(self, child: PlanNode, columns: List[Tuple[str, Optional[ColumnRef]]]):
        self.child = child
        # Each entry is (output name, column ref) — column ref None means "*".
        self.columns = columns

    def explain(self, indent: int = 0) -> str:
        pad = "  " * indent
        names = ", ".join(name for name, _ in self.columns) or "*"
        return f"{pad}Project [{names}]\n" + self.child.explain(indent + 1)


class DistinctNode(PlanNode):
    def __init__(self, child: PlanNode):
        self.child = child

    def explain(self, indent: int = 0) -> str:
        return "  " * indent + "Distinct\n" + self.child.explain(indent + 1)


class OrderNode(PlanNode):
    def __init__(self, child: PlanNode, keys: List[Tuple[ColumnRef, bool]]):
        self.child = child
        # Each key is (column ref, descending); the executor resolves the ref
        # to an output column.
        self.keys = keys

    def explain(self, indent: int = 0) -> str:
        rendered = ", ".join(f"{ref!r} {'DESC' if desc else 'ASC'}" for ref, desc in self.keys)
        return "  " * indent + f"Order [{rendered}]\n" + self.child.explain(indent + 1)


class LimitNode(PlanNode):
    def __init__(self, child: PlanNode, limit: int):
        self.child = child
        self.limit = limit

    def explain(self, indent: int = 0) -> str:
        return "  " * indent + f"Limit {self.limit}\n" + self.child.explain(indent + 1)


# ---------------------------------------------------------------------------
# Name resolution helpers
# ---------------------------------------------------------------------------

class _Resolver:
    """Resolves (possibly unqualified) column references to aliases."""

    def __init__(self, database: Database, tables: Sequence[TableRef]):
        self.aliases: Dict[str, Table] = {}
        for ref in tables:
            if ref.alias in self.aliases:
                raise SQLExecutionError(f"duplicate table alias {ref.alias!r}")
            self.aliases[ref.alias] = database.table(ref.name)

    def resolve(self, ref: ColumnRef) -> Tuple[str, str]:
        """Return (alias, column) for a column reference."""
        if ref.table is not None:
            if ref.table not in self.aliases:
                raise SQLExecutionError(f"unknown table alias {ref.table!r}")
            if ref.column != "*" and not self.aliases[ref.table].schema.has_column(ref.column):
                raise SQLExecutionError(
                    f"table {ref.table!r} has no column {ref.column!r}"
                )
            return ref.table, ref.column
        candidates = [alias for alias, table in self.aliases.items()
                      if table.schema.has_column(ref.column)]
        if not candidates:
            raise SQLExecutionError(f"unknown column {ref.column!r}")
        if len(candidates) > 1:
            raise SQLExecutionError(
                f"ambiguous column {ref.column!r}: present in {sorted(candidates)}"
            )
        return candidates[0], ref.column


def _predicate_aliases(predicate: object, resolver: _Resolver) -> List[str]:
    aliases: List[str] = []
    if isinstance(predicate, Comparison):
        for side in (predicate.left, predicate.right):
            if isinstance(side, ColumnRef):
                aliases.append(resolver.resolve(side)[0])
    elif isinstance(predicate, (InList, Like)):
        aliases.append(resolver.resolve(predicate.column)[0])
    return aliases


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------

def plan_query(database: Database, statement: SelectStatement) -> PlanNode:
    """Build a plan tree for ``statement`` against ``database``."""
    resolver = _Resolver(database, statement.tables)

    single_table: Dict[str, List[object]] = {alias: [] for alias in resolver.aliases}
    join_predicates: List[Comparison] = []
    for predicate in statement.predicates:
        aliases = _predicate_aliases(predicate, resolver)
        distinct_aliases = sorted(set(aliases))
        if len(distinct_aliases) <= 1:
            alias = distinct_aliases[0] if distinct_aliases else next(iter(resolver.aliases))
            single_table[alias].append(predicate)
        else:
            join_predicates.append(predicate)

    scans = {alias: _build_scan(alias, resolver.aliases[alias], predicates, resolver)
             for alias, predicates in single_table.items()}

    plan = _build_join_tree(scans, join_predicates, resolver)

    columns = _resolve_select_list(statement, resolver)
    plan = ProjectNode(plan, columns)
    if statement.distinct:
        plan = DistinctNode(plan)
    if statement.order_by:
        plan = OrderNode(plan, [(item.column, item.descending) for item in statement.order_by])
    if statement.limit is not None:
        plan = LimitNode(plan, statement.limit)
    return plan


def _build_scan(alias: str, table: Table, predicates: List[object],
                resolver: _Resolver) -> ScanNode:
    index_column = None
    index_value = None
    range_column = None
    range_bounds = None
    remaining: List[object] = []
    for predicate in predicates:
        if (index_column is None and isinstance(predicate, Comparison)
                and predicate.op == "="
                and isinstance(predicate.left, ColumnRef)
                and not isinstance(predicate.right, ColumnRef)):
            column = resolver.resolve(predicate.left)[1]
            if column in table.hash_indexes or column in table.sorted_indexes:
                index_column = column
                index_value = predicate.right
                continue
        if (range_column is None and index_column is None
                and isinstance(predicate, Comparison)
                and predicate.op in ("<", "<=", ">", ">=")
                and isinstance(predicate.left, ColumnRef)
                and not isinstance(predicate.right, ColumnRef)
                and predicate.right is not None):  # NULL: no row, not an open end
            column = resolver.resolve(predicate.left)[1]
            if column in table.sorted_indexes:
                range_column = column
                value = predicate.right
                if predicate.op in (">", ">="):
                    range_bounds = (value, None, predicate.op == ">=", True)
                else:
                    range_bounds = (None, value, True, predicate.op == "<=")
                continue
        remaining.append(predicate)
    return ScanNode(alias, table, remaining, index_column, index_value,
                    range_column, range_bounds)


def _build_join_tree(scans: Dict[str, ScanNode], join_predicates: List[Comparison],
                     resolver: _Resolver) -> PlanNode:
    if len(scans) == 1:
        return next(iter(scans.values()))

    remaining_aliases = dict(scans)
    remaining_predicates = list(join_predicates)

    # Start from the smallest estimated input.
    start_alias = min(remaining_aliases, key=lambda alias: remaining_aliases[alias].estimated_rows())
    plan: PlanNode = remaining_aliases.pop(start_alias)
    joined = {start_alias}

    while remaining_aliases:
        chosen = _choose_next_join(joined, remaining_aliases, remaining_predicates, resolver)
        if chosen is None:
            # No connecting equality: a nested loop with the smallest input,
            # filtered by the predicates it covers.
            alias = min(remaining_aliases, key=lambda a: remaining_aliases[a].estimated_rows())
            residual = _take_residual_predicates(joined | {alias}, remaining_predicates, resolver)
            plan = NestedLoopJoinNode(plan, remaining_aliases.pop(alias), residual)
            joined.add(alias)
            continue
        alias, predicate, left_key, right_key = chosen
        right_scan = remaining_aliases.pop(alias)
        remaining_predicates.remove(predicate)
        residual = _take_residual_predicates(joined | {alias}, remaining_predicates, resolver)
        plan = HashJoinNode(plan, right_scan, left_key, right_key, predicate.op, residual)
        joined.add(alias)
    return plan


def _choose_next_join(joined: set, remaining: Dict[str, ScanNode],
                      predicates: List[Comparison], resolver: _Resolver):
    """Pick the (alias, predicate) pair connecting the joined set to a new table."""
    best = None
    best_rows = None
    for predicate in predicates:
        if not (isinstance(predicate, Comparison) and predicate.op in _EQUI_JOIN_OPS
                and isinstance(predicate.left, ColumnRef)
                and isinstance(predicate.right, ColumnRef)):
            continue
        left_alias, _ = resolver.resolve(predicate.left)
        right_alias, _ = resolver.resolve(predicate.right)
        if left_alias in joined and right_alias in remaining:
            alias, left_key, right_key = right_alias, predicate.left, predicate.right
        elif right_alias in joined and left_alias in remaining:
            alias, left_key, right_key = left_alias, predicate.right, predicate.left
        else:
            continue
        rows = remaining[alias].estimated_rows()
        if best_rows is None or rows < best_rows:
            best = (alias, predicate, left_key, right_key)
            best_rows = rows
    return best


def _take_residual_predicates(covered: set, predicates: List[Comparison],
                              resolver: _Resolver) -> List[object]:
    """Remove and return join predicates fully covered by the aliases joined so far."""
    residual = []
    for predicate in list(predicates):
        aliases = _predicate_aliases(predicate, resolver)
        if aliases and all(alias in covered for alias in aliases):
            residual.append(predicate)
            predicates.remove(predicate)
    return residual


def _resolve_select_list(statement: SelectStatement,
                         resolver: _Resolver) -> List[Tuple[str, Optional[ColumnRef]]]:
    columns: List[Tuple[str, Optional[ColumnRef]]] = []
    for item in statement.select_items:
        if item.star:
            columns.append(("*", None))
            continue
        ref = item.column
        resolver.resolve(ref)
        if ref.column == "*":
            columns.append((f"{ref.table}.*", ref))
            continue
        name = item.alias or ref.column
        columns.append((name, ref))
    return columns


def explain_query(database: Database, text: str) -> str:
    """Parse, plan and render the plan of a SQL query (used by tests and docs)."""
    statement = parse_sql(text)
    plan = plan_query(database, statement)
    return plan.explain()
