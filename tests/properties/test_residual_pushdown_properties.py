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
* filters SQL cannot express sit between ones it can.

Values must agree type-exactly, and the optimized plan may never issue more
scan requests than the plan optimized without the SQL rule set does when it
enters every loop.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.optimizer import OptimizerConfig
from repro.core.values import CBag, CList, CSet, Record
from repro.kleisli.drivers import RelationalDriver
from repro.kleisli.engine import KleisliEngine
from repro.relational import Database

TABLES = {
    "ta": ("x", ("id", "k", "v")),
    "tb": ("y", ("id", "k", "w")),
    "tc": ("z", ("k", "z")),
}

_value = st.integers(min_value=0, max_value=3)


def _rows(width):
    return st.lists(st.tuples(*[_value] * width), max_size=5)


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
    (2, False, lambda c: B.prim("gt", B.prim("add", _col("x", "v"), _col("y", "w")), B.const(c))),
    (2, False, lambda c: B.prim("le", B.prim("mul", _col("y", "w"), B.const(2)), _col("x", "v"))),
    (3, True, lambda c: B.prim("eq", _col("z", "k"), _col("x", "k"))),
    (3, True, lambda c: B.prim("lt", _col("z", "z"), B.const(c))),
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


def _typed(value):
    """A value with every scalar's and collection's class made explicit."""
    if isinstance(value, Record):
        return ("record", tuple(sorted((label, _typed(value.project(label)))
                                       for label in value.labels)))
    if isinstance(value, CSet):
        return ("set", frozenset(_typed(element) for element in value))
    if isinstance(value, CBag):
        return ("bag", tuple(sorted((_typed(element) for element in value), key=repr)))
    if isinstance(value, CList):
        return ("list", tuple(_typed(element) for element in value))
    return (type(value).__name__, value)


def _scans(expr):
    found = [expr] if isinstance(expr, A.Scan) else []
    for child in expr.children():
        found.extend(_scans(child))
    return found


PUSHING = KleisliEngine()
UNPUSHED = KleisliEngine(optimizer_config=OptimizerConfig(sql_pushdown=False))


@settings(max_examples=150, deadline=None)
@given(
    rows=st.fixed_dictionaries({"ta": _rows(3), "tb": _rows(3), "tc": _rows(2)}),
    kind=st.sampled_from(["set", "set", "bag", "list"]),
    table_count=st.integers(min_value=2, max_value=3),
    filter_picks=st.lists(st.tuples(st.integers(0, len(FILTERS) - 1), _value),
                          max_size=5, unique_by=lambda pick: pick[0]),
    head_index=st.integers(min_value=0, max_value=4),
)
def test_residual_pushdown_agrees_with_the_interpreter(rows, kind, table_count,
                                                       filter_picks, head_index):
    filter_picks = [pick for pick in filter_picks if FILTERS[pick[0]][0] <= table_count]
    label, whole_row, head = _heads(kind)[head_index]
    expr = _comprehension(kind, table_count, filter_picks, head)
    database = _database(rows)
    for engine in (PUSHING, UNPUSHED):
        engine.register_driver(RelationalDriver("DB", database))

    expected = PUSHING.execute(expr, optimize=False, mode="interpret")
    plan = PUSHING.compile(expr)
    actual = PUSHING.execute(plan, optimize=False)
    pushed_requests = PUSHING.last_eval_statistics.scan_requests
    assert _typed(actual) == _typed(expected), (label, kind, plan.pretty())
    assert _typed(PUSHING.execute(plan, optimize=False, mode="interpret")) == _typed(expected)

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
    assert _typed(PUSHING.execute(expr, bindings)) == _typed(expected)
