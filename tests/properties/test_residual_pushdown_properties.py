"""Differential property test for residual-head SQL pushdown (hypothesis).

``sql-join-pushdown`` ships the table-scan prefix of a set comprehension as
one SQL join and loops over its rows.  The oracle is the tree-walking
interpreter on the *unoptimized* term; the subject is the default optimizer
plus the closure compiler.  Generated over small ``build_gdb``-style tables
whose values collide on purpose, so that

* projecting the join onto the used columns creates duplicate rows,
* two tables share column names (``id``, ``k``) — the alias collision,
* some heads use a generator variable whole (that table must not be pushed),
* bag and list comprehensions occur (nothing may be pushed: the shipped
  result is a set of rows and would lose multiplicities),
* filters SQL cannot express sit between ones it can,
* a ``k`` is NULL now and then, which CPL lifts as ``()``: equal to ``()``
  and to nothing else, under ``=`` and ``<>`` alike.

Values must agree type-exactly, and the optimized plan may never issue more
scan requests than the plan optimized without the SQL rule set does when it
enters every loop.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import EvaluationError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.optimizer import OptimizerConfig
from repro.core.values import CSet, Record
from repro.kleisli.drivers import RelationalDriver
from repro.kleisli.engine import KleisliEngine
from repro.relational import Database

from paths import exact

TABLES = {
    "ta": ("x", ("id", "k", "v")),
    "tb": ("y", ("id", "k", "w")),
    "tc": ("z", ("k", "z")),
}

_value = st.integers(min_value=0, max_value=3)


def _rows(table):
    """Up to five rows of ``table``; its ``k`` may be NULL."""
    return st.lists(st.tuples(*[st.one_of(st.none(), _value) if column == "k" else _value
                                for column in TABLES[table][1]]), max_size=5)


def _database(rows_by_table):
    database = Database("DB")
    for name, (_, columns) in TABLES.items():
        table = database.create_table_from_spec(name, {column: "int" for column in columns})
        table.insert_many(dict(zip(columns, row)) for row in rows_by_table[name])
    return database


def _col(var, column):
    return B.project(B.var(var), column)


#: Filters by the generator they may follow (1 = after ``x``, ...), each
#: only naming variables bound by then.  ``True`` = SQL can express it.
FILTERS = [
    (1, True, lambda c: B.prim("gt", _col("x", "v"), B.const(c))),
    (1, True, lambda c: B.prim("eq", B.const(c), _col("x", "k"))),
    (1, False, lambda c: B.prim("eq", B.prim("mod", _col("x", "v"), B.const(2)), B.const(c % 2))),
    (2, True, lambda c: B.prim("eq", _col("x", "k"), _col("y", "k"))),
    (2, True, lambda c: B.prim("eq", _col("x", "id"), _col("y", "id"))),
    (2, True, lambda c: B.prim("neq", _col("y", "w"), B.const(c))),
    (2, True, lambda c: B.prim("neq", _col("y", "k"), B.const(c))),
    (2, False, lambda c: B.prim("gt", B.prim("add", _col("x", "v"), _col("y", "w")), B.const(c))),
    (2, False, lambda c: B.prim("le", B.prim("mul", _col("y", "w"), B.const(2)), _col("x", "v"))),
    (3, True, lambda c: B.prim("eq", _col("z", "k"), _col("x", "k"))),
    (3, True, lambda c: B.prim("lt", _col("z", "z"), B.const(c))),
    (3, True, lambda c: B.prim("neq", _col("z", "k"), _col("y", "k"))),
    (3, False, lambda c: B.prim("ge", B.prim("sub", _col("z", "z"), _col("y", "w")), B.const(0))),
]


def _heads(kind):
    """(label, uses ``x`` whole, head expression) — none a plain column record."""
    inner = B.ext("n", B.singleton(B.prim("add", _col("x", "v"), B.var("n")), kind),
                  A.Const(CSet([1, 2])), kind)
    return [
        ("sum", False, B.singleton(B.prim("add", _col("x", "v"), _col("y", "w")), kind)),
        ("shared-names", False, B.singleton(B.record(
            a=_col("x", "k"), b=_col("y", "k"),
            s=B.prim("add", _col("x", "id"), _col("y", "id"))), kind)),
        ("one-table", False, B.singleton(B.prim("mul", _col("x", "k"), B.const(1)), kind)),
        ("inner-loop", False, inner),
        ("whole-row", True, B.singleton(B.record(r=B.var("x"), w=_col("y", "w")), kind)),
    ]


def _comprehension(kind, table_count, filter_picks, head):
    """The desugared (not normalised) Ext / If / head nest."""
    names = list(TABLES)[:table_count]
    body = head
    for position in range(table_count, 0, -1):
        for index, constant in reversed(filter_picks):
            after, _, make = FILTERS[index]
            if after == position:
                body = A.IfThenElse(make(constant), body, A.Empty(kind))
        var = TABLES[names[position - 1]][0]
        body = B.ext(var, body, A.Scan("DB", {"table": names[position - 1]}), kind)
    return body


def _scans(expr):
    found = [expr] if isinstance(expr, A.Scan) else []
    for child in expr.children():
        found.extend(_scans(child))
    return found


#: One NULL ``k`` in each table.
NULL_KEYED = {"ta": [(0, 1, 10), (1, None, 20), (2, 2, 30)],
              "tb": [(0, 1, 1), (1, None, 2), (2, 3, 3)], "tc": []}


PUSHING = KleisliEngine()
UNPUSHED = KleisliEngine(optimizer_config=OptimizerConfig(sql_pushdown=False))


@settings(max_examples=150, deadline=None)
@given(
    rows=st.fixed_dictionaries({name: _rows(name) for name in TABLES}),
    kind=st.sampled_from(["set", "set", "bag", "list"]),
    table_count=st.integers(min_value=2, max_value=3),
    filter_picks=st.lists(st.tuples(st.integers(0, len(FILTERS) - 1), _value),
                          max_size=5, unique_by=lambda pick: pick[0]),
    head_index=st.integers(min_value=0, max_value=4),
)
@example(rows=NULL_KEYED, kind="set", table_count=2, filter_picks=[(3, 0)], head_index=0)
def test_residual_pushdown_agrees_with_the_interpreter(rows, kind, table_count,
                                                       filter_picks, head_index):
    filter_picks = [pick for pick in filter_picks if FILTERS[pick[0]][0] <= table_count]
    label, whole_row, head = _heads(kind)[head_index]
    expr = _comprehension(kind, table_count, filter_picks, head)
    database = _database(rows)
    for engine in (PUSHING, UNPUSHED):
        engine.register_driver(RelationalDriver("DB", database))

    plan = PUSHING.compile(expr)
    try:
        expected = PUSHING.execute(expr, optimize=False, mode="interpret")
    except EvaluationError:
        # ``x.k * 1`` met a NULL ``k``: the plan meets the same row.
        with pytest.raises(EvaluationError):
            PUSHING.execute(plan, optimize=False)
        return
    actual = PUSHING.execute(plan, optimize=False)
    pushed_requests = PUSHING.last_eval_statistics.scan_requests
    oracle = exact(expected, ordered=False)
    assert exact(actual, ordered=False) == oracle, (label, kind, plan.pretty())
    assert exact(PUSHING.execute(plan, optimize=False, mode="interpret"),
                 ordered=False) == oracle

    # Never more requests than one scan per table, which is what the plan
    # without the SQL rules issues once every loop is entered.  (It can issue
    # fewer — a table under a loop that never runs is never scanned — and
    # only a fully shipped join, one request, is sure to match that.)
    UNPUSHED.execute(expr)
    assert pushed_requests <= table_count
    if not whole_row:
        assert pushed_requests <= UNPUSHED.last_eval_statistics.scan_requests

    shipped = [scan.request["query"] for scan in _scans(plan) if "query" in scan.request]
    if kind != "set":
        assert not shipped, f"a {kind} comprehension was pushed: {shipped}"
    elif whole_row:
        assert not any(" ta " in sql for sql in shipped), shipped
    else:
        # Every generator is a table of one SQL driver and the head reads
        # columns only: the whole prefix is one shipped join.
        assert pushed_requests == 1 and len(shipped) == 1, plan.pretty()
        assert all(f"{name} t" in shipped[0] for name in list(TABLES)[:table_count])


def test_deferred_filter_is_not_captured_by_a_later_generator():
    """``f(y)`` between the generators means the *outer* ``y``; it runs below
    the shipped join, so the join must not take in the generator that
    re-binds ``y``."""
    outer_y = B.prim("gt", B.prim("add", _col("y", "w"), _col("x", "v")), B.const(2))
    expr = B.ext("x", A.IfThenElse(outer_y, B.ext(
        "y", A.IfThenElse(B.prim("eq", _col("x", "k"), _col("y", "k")),
                          B.singleton(B.prim("add", _col("x", "v"), _col("y", "w"))),
                          A.Empty("set")),
        A.Scan("DB", {"table": "tb"})), A.Empty("set")), A.Scan("DB", {"table": "ta"}))
    PUSHING.register_driver(RelationalDriver("DB", _database(
        {"ta": [(0, 1, 0), (1, 1, 3)], "tb": [(0, 1, 5), (1, 1, 1)], "tc": []})))
    bindings = {"y": Record({"w": 0})}
    expected = PUSHING.execute(expr, bindings, optimize=False, mode="interpret")
    assert expected == CSet([8, 4])  # only x.v = 3 passes the outer-y filter
    assert exact(PUSHING.execute(expr, bindings), ordered=False) == \
        exact(expected, ordered=False)


def _filtered(condition, head, *tables):
    """``{head | \\x <- ta[, \\y <- tb], condition}``."""
    body = A.IfThenElse(condition, B.singleton(head), A.Empty("set"))
    for name in reversed(tables):
        body = B.ext(TABLES[name][0], body, A.Scan("DB", {"table": name}))
    return body


@pytest.mark.parametrize("expr, expected", [
    (_filtered(B.prim("neq", _col("x", "k"), B.const(1)), _col("x", "v"), "ta"),
     CSet([20, 30])),
    (_filtered(B.prim("neq", B.const(1), _col("x", "k")), B.record(v=_col("x", "v")), "ta"),
     CSet([Record({"v": 20}), Record({"v": 30})])),
    (_filtered(B.prim("eq", _col("x", "k"), _col("y", "k")),
               B.prim("add", _col("x", "v"), _col("y", "w")), "ta", "tb"),
     CSet([11, 22])),
    (_filtered(B.prim("neq", _col("x", "k"), _col("y", "k")),
               B.prim("add", _col("x", "v"), _col("y", "w")), "ta", "tb"),
     CSet([12, 13, 21, 23, 31, 32, 33])),
], ids=["<> a literal", "literal <> as a whole query", "= a column", "<> a column"])
def test_a_shipped_comparison_treats_null_as_cpl_does(expr, expected):
    """A shipped ``=`` or ``<>`` keeps the NULL rows CPL keeps."""
    PUSHING.register_driver(RelationalDriver("DB", _database(NULL_KEYED)))
    assert PUSHING.execute(expr, optimize=False, mode="interpret") == expected
    plan = PUSHING.compile(expr)
    assert any({"query", "where"} & scan.request.keys() for scan in _scans(plan)), \
        plan.pretty()
    assert exact(PUSHING.execute(plan, optimize=False), ordered=False) == \
        exact(expected, ordered=False)
