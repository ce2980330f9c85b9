"""Executor for SQL plans.

Every node yields tuples.  A node's *layout* is the ``(alias, column)`` at
each position of its rows: a scan's rows are the table's own
``Table.rows`` entries, in schema order, and a join's are its left input's
row followed by its right input's.  Every column a predicate, join key,
select item or ORDER BY key names is resolved to a position before the
first row is read, and each predicate becomes a closure over positions.
The projection is one ``itemgetter``; the result is ``(labels, rows)``,
the unique output names and one value tuple per row.  The executor is
where index lookups, hash joins and residual filters actually run.
"""

from __future__ import annotations

import operator
import re
from itertools import islice
from operator import itemgetter
from typing import Callable, Iterable, List, Tuple

from ...core.errors import SQLExecutionError
from ..database import Database
from .ast import ColumnRef, Comparison, InList, Like
from .parser import parse_sql
from .planner import (
    DistinctNode,
    HashJoinNode,
    LimitNode,
    OrderNode,
    PlanNode,
    ScanNode,
    plan_query,
)

__all__ = ["execute_sql", "execute_plan"]

Row = Tuple[object, ...]
Layout = List[Tuple[str, str]]
Result = Tuple[Tuple[str, ...], List[Row]]

_COMPARISONS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}
#: NULL is a value here, equal to itself only: Python's ``==`` and ``!=``.
_NULL_SAFE = {"is not distinct from": operator.eq, "is distinct from": operator.ne}


def execute_sql(database: Database, text: str) -> Result:
    """Parse, plan and execute ``text`` against ``database``."""
    return execute_plan(plan_query(database, parse_sql(text)))


def execute_plan(plan: PlanNode) -> Result:
    """Execute a plan tree: ``(labels, rows)``.

    The planner puts LIMIT over ORDER BY over DISTINCT over the projection
    of the join tree, each but the projection optional.
    """
    limit = plan.limit if isinstance(plan, LimitNode) else None
    node = plan.child if limit is not None else plan
    keys = node.keys if isinstance(node, OrderNode) else ()
    node = node.child if keys else node
    distinct = isinstance(node, DistinctNode)
    project = node.child if distinct else node
    layout, rows = _rows(project.child)
    labels, positions = _projection(project.columns, layout)
    order = [(_order_position(ref, labels, positions, layout), descending)
             for ref, descending in keys]
    if positions != tuple(range(len(layout))):
        rows = map(_getter(positions), rows)
    if distinct:
        rows = dict.fromkeys(rows)
    if order:
        rows = list(rows)
        for position, descending in reversed(order):
            rows.sort(key=lambda row, at=position: _rank(row[at]), reverse=descending)
    if limit is not None:
        rows = islice(rows, limit)
    return labels, list(rows)


# ---------------------------------------------------------------------------
# The join tree
# ---------------------------------------------------------------------------

def _rows(node: PlanNode) -> Tuple[Layout, Iterable[Row]]:
    if isinstance(node, ScanNode):
        layout = [(node.alias, column) for column in node.table.schema.column_names]
        return layout, _filtered(_scan(node), node.predicates, layout)
    left_layout, left = _rows(node.left)
    right_layout, right = _rows(node.right)
    layout = left_layout + right_layout
    if isinstance(node, HashJoinNode):
        rows = _hash_join(left, right, itemgetter(_position(left_layout, node.left_key)),
                          itemgetter(_position(right_layout, node.right_key)),
                          node.op != "=")
        return layout, _filtered(rows, node.residual, layout)
    return layout, _filtered(_product(left, right), node.predicates, layout)


def _scan(node: ScanNode) -> Iterable[Row]:
    table = node.table
    if node.index_column is not None:
        if node.index_value is None:  # ``= NULL`` holds for no row
            return ()
        return table.lookup(node.index_column, node.index_value)
    if node.range_column is not None and node.range_bounds is not None:
        return table.range_lookup(node.range_column, *node.range_bounds)
    return table.rows


def _hash_join(left: Iterable[Row], right: Iterable[Row],
               left_key: Callable, right_key: Callable, null_matches: bool) -> Iterable[Row]:
    """``null_matches``: a NULL key meets a NULL key (``IS NOT DISTINCT
    FROM``); under ``=`` a NULL key matches nothing, a NULL included."""
    index = {}
    for row in right:
        key = right_key(row)
        if key is not None or null_matches:
            index.setdefault(key, []).append(row)
    for left_row in left:
        for right_row in index.get(left_key(left_row), ()):
            yield left_row + right_row


def _product(left: Iterable[Row], right: Iterable[Row]) -> Iterable[Row]:
    right = list(right)
    for left_row in left:
        for right_row in right:
            yield left_row + right_row


def _position(layout: Layout, ref: ColumnRef) -> int:
    if ref.table is not None:
        if (ref.table, ref.column) in layout:
            return layout.index((ref.table, ref.column))
    else:
        matches = [at for at, (_, column) in enumerate(layout) if column == ref.column]
        if len(matches) == 1:
            return matches[0]
    raise SQLExecutionError(f"cannot resolve column {ref!r}")


# ---------------------------------------------------------------------------
# Predicates: closures over positions
# ---------------------------------------------------------------------------

def _filtered(rows: Iterable[Row], predicates: List[object], layout: Layout) -> Iterable[Row]:
    for predicate in predicates:
        rows = filter(_predicate(predicate, layout), rows)
    return rows


def _operand(operand: object, layout: Layout) -> Callable[[Row], object]:
    if isinstance(operand, ColumnRef):
        return itemgetter(_position(layout, operand))
    return lambda row: operand


def _predicate(predicate: object, layout: Layout) -> Callable[[Row], bool]:
    if isinstance(predicate, InList):
        value, values = _operand(predicate.column, layout), predicate.values
        return lambda row: (item := value(row)) is not None and item in values
    if isinstance(predicate, Like):
        value, match = _operand(predicate.column, layout), _like(predicate.pattern)
        return lambda row: isinstance(text := value(row), str) and match(text) is not None
    if not isinstance(predicate, Comparison):
        raise SQLExecutionError(f"cannot evaluate predicate {predicate!r}")
    left, op = _operand(predicate.left, layout), predicate.op
    if op == "is null":
        return lambda row: left(row) is None
    if op == "is not null":
        return lambda row: left(row) is not None
    right = _operand(predicate.right, layout)
    null_safe = _NULL_SAFE.get(op)
    if null_safe is not None:
        return lambda row: null_safe(left(row), right(row))
    compare = _COMPARISONS.get(op)
    if compare is None:
        raise SQLExecutionError(f"unknown comparison operator {op!r}")

    def compared(row: Row) -> bool:
        a, b = left(row), right(row)
        if a is None or b is None:  # a comparison with NULL is never true
            return False
        try:
            return compare(a, b)
        except TypeError:
            raise SQLExecutionError(f"cannot compare {a!r} and {b!r} with {op}")
    return compared


def _like(pattern: str) -> Callable[[str], object]:
    """The matcher of a LIKE pattern: ``%`` and ``_`` are its only wildcards."""
    regex = "".join(".*" if char == "%" else "." if char == "_" else re.escape(char)
                    for char in pattern)
    return re.compile(regex, re.DOTALL).fullmatch


# ---------------------------------------------------------------------------
# Projection and ORDER BY
# ---------------------------------------------------------------------------

def _projection(columns, layout: Layout) -> Tuple[Tuple[str, ...], Tuple[int, ...]]:
    """The output names and the position each reads.  A name given twice
    keeps its first place and its last column, as a dict row would."""
    slots = {}
    for name, ref in columns:
        if ref is None or ref.column == "*":
            for at, (alias, column) in enumerate(layout):
                if ref is None or alias == ref.table:
                    slots[column] = at
        else:
            slots[name] = _position(layout, ref)
    return tuple(slots), tuple(slots.values())


def _getter(positions: Tuple[int, ...]) -> Callable[[Row], Row]:
    """A tuple of the values at ``positions`` (a slice when they run on)."""
    first = positions[0] if positions else 0
    if positions == tuple(range(first, first + len(positions))):
        return itemgetter(slice(first, first + len(positions)))
    return itemgetter(*positions)


def _order_position(ref: ColumnRef, labels: Tuple[str, ...], positions: Tuple[int, ...],
                    layout: Layout) -> int:
    """The output position an ORDER BY key sorts on: the output name it
    spells, else the output column it names."""
    if ref.table is None and ref.column in labels:
        return labels.index(ref.column)
    try:
        return positions.index(_position(layout, ref))
    except (SQLExecutionError, ValueError):
        raise SQLExecutionError(f"ORDER BY {ref!r} names no output column") from None


def _rank(value: object) -> Tuple[int, object]:
    """A sort key over mixed types: None < bool < number < str."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, str(value))
