"""Pushdown of selections, projections and joins into SQL-capable drivers.

This is the optimization behind the paper's Loci22 example: a CPL query written
as three generators over ``GDB-Tab`` table scans joined by equality conditions
"appears to send three queries to the Sybase server and perform the join
within CPL", but the optimizer "would reconstruct it ... resulting in a single
SQL query being shipped".

Two rules implement it:

* **sql-join-pushdown** — when a whole comprehension block (generators over
  table scans of one SQL driver, conjunctive comparison filters, a record or
  single-variable head) is recognised, the block collapses into one
  ``Scan({"query": "select ..."})``.

  *Residual head.*  When the block is only the top of the comprehension — the
  DOE query uses ``Loci22`` as the source of a loop over Entrez — its maximal
  prefix of table-scan generators and their renderable filters still becomes
  one query, and what it encloses becomes a loop over that query's rows::

      U{ U{ if p(x,y) then e(x.a, y.b) | \\y <- T2 } | \\x <- T1 }
          -->  U{ e(r.c0, r.c1) | \\r <- Scan("select t0.a c0, t1.b c1 ... where p") }

  Only the columns ``e`` reads are selected, under positional aliases (two
  tables may share a column name); filters SQL cannot express stay in front
  of ``e``.  The rule gives up when ``e`` uses a generator variable whole.
  It is for **sets only**: projecting the join onto the used columns makes
  rows coincide, and the driver returns a set of rows, which is harmless
  under a set union and would lose multiplicities of a bag or a list.
* **sql-select-pushdown** — otherwise, per-generator constant comparisons move
  into the scan's ``where`` list and the columns actually used move into its
  ``columns`` list, so at least selections and projections run on the server.

The paper (and [42]) prove any subquery not involving nested relations or
powerful operators can be pushed; these rules cover the conjunctive core of
that class, which is what the paper's examples exercise.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..nrc import ast as A
from ..nrc.rewrite import Rule, RuleSet
from ..nrc.rules_monadic import rule_projection_reduction

__all__ = ["make_sql_pushdown_rule_set", "generate_sql"]

#: CPL's ``=`` and ``<>`` are Python's, under which a NULL (lifted as ``()``)
#: equals NULL and nothing else: SQL's ``IS [NOT] DISTINCT FROM``.  SQL's
#: ``=`` and ``<>`` never hold for a NULL; ``= literal`` is the same test as
#: CPL's (a literal is never NULL) and keeps the index lookup, see
#: :func:`_sql_operator`.  Under ``<`` and the rest SQL drops a NULL row,
#: where CPL raises.
_COMPARISON_PRIMS = {"eq": "is not distinct from", "neq": "is distinct from",
                     "lt": "<", "le": "<=", "gt": ">", "ge": ">="}


def make_sql_pushdown_rule_set(capabilities: Mapping[str, FrozenSet[str]]) -> RuleSet:
    """Build the SQL pushdown rule set for drivers whose capabilities include 'sql'."""

    def sql_capable(driver: str) -> bool:
        return "sql" in capabilities.get(driver, frozenset())

    def join_pushdown(expr: A.Expr) -> Optional[A.Expr]:
        return _try_join_pushdown(expr, sql_capable)

    def select_pushdown(expr: A.Expr) -> Optional[A.Expr]:
        return _try_per_scan_pushdown(expr, sql_capable)

    rules = [
        Rule("sql-join-pushdown", join_pushdown,
             "collapse a conjunctive comprehension over one SQL driver into a single query",
             node_types=A.Ext),
        Rule("sql-select-pushdown", select_pushdown,
             "move per-table selections and projections into the driver request",
             node_types=A.Ext),
    ]
    return RuleSet("sql-pushdown", rules, direction="top-down", max_iterations=4)


# ---------------------------------------------------------------------------
# Decomposition of a normalised comprehension block
# ---------------------------------------------------------------------------

def _is_plain_table_scan(source: A.Expr, sql_capable) -> bool:
    """A whole-table scan of an SQL driver that nothing was pushed into yet."""
    return (isinstance(source, A.Scan) and not source.args
            and sql_capable(source.driver) and "table" in source.request
            and not {"query", "where", "columns"} & source.request.keys())


def _split_block(expr: A.Expr, sql_capable):
    """Split a normalised set comprehension at the end of its pushable prefix.

    The prefix is the maximal run of set generators over plain table scans of
    one SQL driver, together with the filters between and directly below
    them.  Returns ``(driver, tables, conditions, deferred, rest)``: the
    renderable filters as SQL text, the others (in order) as NRC conditions,
    and the expression the prefix encloses.  Each filter is rendered against
    the generators bound *above* it, and the prefix ends at a generator that
    re-binds a name an earlier deferred filter uses: that filter will run
    below every generator of the prefix and must still mean the outer name.
    """
    driver: Optional[str] = None
    tables: Dict[str, Tuple[str, str]] = {}  # var -> (table, alias)
    conditions: List[str] = []
    deferred: List[A.Expr] = []
    current = expr
    while True:
        if (isinstance(current, A.Ext) and current.kind == "set"
                and current.var not in tables
                and _is_plain_table_scan(current.source, sql_capable)
                and driver in (None, current.source.driver)
                and not any(current.var in A.free_variables(f) for f in deferred)):
            driver = current.source.driver
            tables[current.var] = (str(current.source.request["table"]), f"t{len(tables)}")
            current = current.body
        elif isinstance(current, A.IfThenElse) and isinstance(current.else_branch, A.Empty):
            rendered = _render_condition(current.cond, tables)
            if rendered is None:
                deferred.append(current.cond)
            else:
                conditions.append(rendered)
            current = current.then_branch
        else:
            return driver, tables, conditions, deferred, current


#: ``[c = row.c0, ...].c --> row.c0`` over a whole subterm (R4, reused).
_REDUCE_PROJECTIONS = RuleSet("project-reduce", [rule_projection_reduction])


def _try_join_pushdown(expr: A.Ext, sql_capable) -> Optional[A.Expr]:
    if expr.kind != "set":
        return None
    driver, tables, conditions, deferred, rest = _split_block(expr, sql_capable)
    if not tables:
        return None

    # The whole block is SQL: no loop is left at all.
    if not deferred and isinstance(rest, A.Singleton) and rest.kind == "set":
        select_list = _render_head(rest.expr, tables)
        if select_list is not None:
            return A.Scan(driver, {"query": generate_sql(select_list, tables, conditions)},
                          kind="set")

    # Residual head: ship the join, loop over its rows.  One generator is no
    # join, and the per-scan rule already pushes its selections and columns.
    if len(tables) < 2:
        return None
    for condition in reversed(deferred):
        rest = A.IfThenElse(condition, rest, A.Empty("set"))
    row = A.fresh_var("row")
    select_items: List[str] = []
    for var, (_, alias) in tables.items():
        if var not in A.free_variables(rest):
            continue
        columns = _used_columns(rest, var)
        if columns is None:
            return None  # the row is used whole: it cannot be cut down to columns
        fields = {}
        for column in sorted(columns):
            # Positional aliases: two tables may share a column name.
            fields[column] = A.Project(A.Var(row), f"c{len(select_items)}")
            select_items.append(f"{alias}.{column} c{len(select_items)}")
        rest = A.substitute(rest, var, A.RecordExpr(fields))
    if not select_items:
        return None
    sql = generate_sql(", ".join(select_items), tables, conditions)
    return A.Ext(row, _REDUCE_PROJECTIONS.apply(rest),
                 A.Scan(driver, {"query": sql}, kind="set"), "set")


def generate_sql(select_list: str, tables: Mapping[str, Tuple[str, str]],
                 conditions: Sequence[str]) -> str:
    """Assemble the final SELECT statement text."""
    from_clause = ", ".join(f"{table} {alias}" for table, alias in tables.values())
    sql = f"select {select_list} from {from_clause}"
    if conditions:
        sql += " where " + " and ".join(conditions)
    return sql


def _render_head(head: A.Expr, tables: Mapping[str, Tuple[str, str]]) -> Optional[str]:
    if isinstance(head, A.Var) and head.name in tables:
        _, alias = tables[head.name]
        return f"{alias}.*"
    if isinstance(head, A.RecordExpr):
        items = []
        for label, value in head.fields.items():
            column = _render_column(value, tables)
            if column is None:
                return None
            items.append(f"{column} {label}" if column.split(".")[-1] != label else column)
        return ", ".join(items)
    return None


def _render_column(expr: A.Expr, tables: Mapping[str, Tuple[str, str]]) -> Optional[str]:
    if (isinstance(expr, A.Project) and isinstance(expr.expr, A.Var)
            and expr.expr.name in tables):
        _, alias = tables[expr.expr.name]
        return f"{alias}.{expr.label}"
    return None


def _render_condition(condition: A.Expr, tables: Mapping[str, Tuple[str, str]]) -> Optional[str]:
    if not isinstance(condition, A.PrimCall) or condition.name not in _COMPARISON_PRIMS:
        return None
    if len(condition.args) != 2:
        return None
    left = _render_operand(condition.args[0], tables)
    right = _render_operand(condition.args[1], tables)
    if left is None or right is None:
        return None
    literal = any(isinstance(arg, A.Const) for arg in condition.args)
    return f"{left} {_sql_operator(condition.name, literal)} {right}"


def _sql_operator(prim: str, literal: bool) -> str:
    """The SQL spelling of comparison ``prim``; ``literal``: one side is a
    literal, under which CPL's ``=`` is SQL's ``=``."""
    return "=" if prim == "eq" and literal else _COMPARISON_PRIMS[prim]


def _render_operand(expr: A.Expr, tables: Mapping[str, Tuple[str, str]]) -> Optional[str]:
    column = _render_column(expr, tables)
    if column is not None:
        return column
    if isinstance(expr, A.Const):
        return _render_literal(expr.value)
    return None


def _render_literal(value: object) -> Optional[str]:
    if not _pushable(value):
        return None
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return repr(value)


def _pushable(value: object) -> bool:
    """Whether SQL can spell ``value`` as a literal: a string or a finite
    number.  SQL has no boolean, infinity or NaN literal (``repr`` of one
    would read as a column name), so such a comparison stays in CPL."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, (str, int)) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# Per-scan (partial) pushdown
# ---------------------------------------------------------------------------

def _try_per_scan_pushdown(expr: A.Ext, sql_capable) -> Optional[A.Expr]:
    if expr.kind != "set":
        return None
    source = expr.source
    if not _is_plain_table_scan(source, sql_capable):
        return None

    var = expr.var
    body = expr.body

    # (a) selection pushdown: constant comparisons on the loop variable in the
    # immediate filter chain under this generator.
    pushable: List[Dict[str, object]] = []
    new_body = _strip_filters(body, var, expr.kind, pushable)

    # (b) projection pushdown: when every use of the variable is a field
    # projection, ask the server for just those columns.
    columns = _used_columns(new_body, var)

    if not pushable and columns is None:
        return None
    request = dict(source.request)
    if pushable:
        request["where"] = pushable
    if columns:
        request["columns"] = sorted(columns)
    return A.Ext(var, new_body, source.with_request(request), expr.kind)


def _strip_filters(node: A.Expr, var: str, kind: str,
                   pushable: List[Dict[str, object]]) -> A.Expr:
    """``node`` without the constant comparisons on ``var`` in its filter
    chain, which go to ``pushable``."""
    if (isinstance(node, A.IfThenElse) and isinstance(node.else_branch, A.Empty)
            and node.else_branch.kind == kind):
        condition = _constant_comparison(node.cond, var)
        if condition is not None:
            pushable.append(condition)
            return _strip_filters(node.then_branch, var, kind, pushable)
        return A.IfThenElse(node.cond,
                            _strip_filters(node.then_branch, var, kind, pushable),
                            node.else_branch)
    return node


def _constant_comparison(condition: A.Expr, var: str) -> Optional[Dict[str, object]]:
    if not isinstance(condition, A.PrimCall) or condition.name not in _COMPARISON_PRIMS:
        return None
    if len(condition.args) != 2:
        return None
    left, right = condition.args
    for column_side, const_side, flip in ((left, right, False), (right, left, True)):
        if (isinstance(column_side, A.Project) and isinstance(column_side.expr, A.Var)
                and column_side.expr.name == var and isinstance(const_side, A.Const)
                and _pushable(const_side.value)):
            op = _sql_operator(condition.name, True)
            if flip:
                op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
            return {"column": column_side.label, "op": op, "value": const_side.value}
    return None


def _used_columns(expr: A.Expr, var: str) -> Optional[set]:
    """Columns of ``var`` used in ``expr``; None when ``var`` is used whole."""
    columns: set = set()
    ok = _collect_columns(expr, var, columns)
    if not ok:
        return None
    return columns if columns else None


def _collect_columns(expr: A.Expr, var: str, columns: set) -> bool:
    if isinstance(expr, A.Project) and isinstance(expr.expr, A.Var) and expr.expr.name == var:
        columns.add(expr.label)
        return True
    if isinstance(expr, A.Var) and expr.name == var:
        return False
    if isinstance(expr, (A.Lam, A.Ext, A.Let)) :
        # Respect shadowing of the variable by inner binders.
        if isinstance(expr, A.Lam) and expr.param == var:
            return True
        if isinstance(expr, A.Ext) and expr.var == var:
            return _collect_columns(expr.source, var, columns)
        if isinstance(expr, A.Let) and expr.var == var:
            return _collect_columns(expr.value, var, columns)
    for child in expr.children():
        if not _collect_columns(child, var, columns):
            return False
    return True
