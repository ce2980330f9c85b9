"""The SQL executor against a nested-loop reference.

Over two small random tables, ``a(id, k, n)`` and ``b(k, m)`` (int and
string columns, NULLs, the column name ``k`` in both, indexes or not,
statistics or not), a random ``select`` — ``*``, ``t.*``, plain, qualified
and aliased items, duplicate output names, a conjunction of ``=``, ``<>``,
``<``, ``>=``, ``is [not] distinct from``, ``IN``, ``is [not] null``, column
against column (``=`` or ``is [not] distinct from``) and ``LIKE`` with
``%`` / ``_`` (a constant is NULL now and then, and a comparison or ``IN``
with a NULL operand holds for no row; under ``is [not] distinct from`` NULL
equals NULL only), ``DISTINCT``, ``ORDER BY`` an output name and ``LIMIT`` —
answers through :meth:`Database.sql` what a comprehension over the product
of the tables answers, and raises :class:`SQLExecutionError` exactly when
the reference finds a column it cannot resolve.

The reference reads one thing from the plan rather than restating the
planner: the order of the tables in the joined row, which is the order of
the scans in :func:`explain_query` (``*`` lists the left input's columns
first, and a duplicate output name holds the value of the last column of
that name).  Ties under ``ORDER BY`` may come in any order, so an ordered
answer is checked on its key sequence and as a sub-multiset of the
reference; an unordered one as a multiset.

Cost: the property runs 300 examples in about 2 s on a 2-core box.
"""

import itertools
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import SQLExecutionError
from repro.relational import Column, Database, TableSchema
from repro.relational.sql.planner import explain_query

COLUMNS = {"a": (("id", "int"), ("k", "string"), ("n", "int")),
           "b": (("k", "string"), ("m", "int"))}
TYPES = {table: dict(columns) for table, columns in COLUMNS.items()}
NAMES = {table: [name for name, _ in columns] for table, columns in COLUMNS.items()}

INTS = st.integers(-1, 3)
STRINGS = st.sampled_from(["", "a", "b", "ab", "ba", "aab"])


def _values(kind):
    return INTS if kind == "int" else STRINGS


def _constants(kind):
    """A literal for a column of ``kind``; one in four is NULL."""
    return st.integers(0, 3).flatmap(lambda pick: st.none() if pick == 0
                                     else _values(kind))


def _database(rows, sorted_column=None, hashed=(), analyze=False):
    """``(database, {table: value tuples})`` over ``rows``, a list of dicts
    per table, with the given indexes and statistics."""
    database = Database("ref")
    for name, columns in COLUMNS.items():
        schema = TableSchema(name, [Column(column, kind, nullable=(column != "id"))
                                    for column, kind in columns])
        database.create_table(schema).insert_many(rows[name])
    if sorted_column is not None:
        database.table("a").create_sorted_index(sorted_column)
    for table, column in hashed:
        database.table(table).create_hash_index(column)
    if analyze:
        database.analyze()
    return database, {name: [tuple(row[column] for column in NAMES[name])
                             for row in rows[name]] for name in COLUMNS}


@st.composite
def databases(draw):
    rows = {name: draw(st.lists(st.fixed_dictionaries(
        {column: (_values(kind) if column == "id"
                  else st.one_of(st.none(), _values(kind)))
         for column, kind in columns}), min_size=draw(st.sampled_from([0, 1, 2])),
        max_size=5)) for name, columns in COLUMNS.items()}
    # A sorted index on the column without NULLs, or on one with them.
    sorted_column = draw(st.sampled_from([None, "id", "n", "k"]))
    hashed = [index for index in (("a", "k"), ("b", "k"), ("b", "m"))
              if draw(st.booleans())]
    return _database(rows, sorted_column, hashed, draw(st.booleans()))


def _refs(draw, tables):
    """A column reference, mostly over the FROM list: ((table or None,
    column), its type)."""
    table = draw(st.sampled_from(tables * 4 + sorted(COLUMNS)))
    column = draw(st.sampled_from(NAMES[table]))
    return (table if draw(st.booleans()) else None, column), TYPES[table][column]


#: NULL is a value under these, equal to NULL only.
_NULL_SAFE = {"is not distinct from": lambda a, b: a == b,
              "is distinct from": lambda a, b: a != b}


@st.composite
def statements(draw):
    tables = draw(st.sampled_from([["a"], ["a", "b"], ["b", "a"]]))
    items = []
    for _ in range(draw(st.integers(1, 3))):
        what = draw(st.sampled_from(["star", "table-star", "column", "aliased"]))
        if what == "star":
            items.append(("*",))
        elif what == "table-star":
            items.append(("t.*", draw(st.sampled_from(tables))))
        else:
            ref, _ = _refs(draw, tables)
            alias = draw(st.sampled_from(["id", "k", "m", "z"])) \
                if what == "aliased" else None
            items.append(("column", ref, alias))
    predicates = []
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 2, 3]))):
        ref, kind = _refs(draw, tables)
        what = draw(st.sampled_from(["compare", "in", "null", "columns", "like"]))
        if what == "compare":
            op = draw(st.sampled_from(["=", "<>", "<", ">="] + list(_NULL_SAFE)))
            predicates.append(("compare", op, ref, draw(_constants(kind))))
        elif what == "in":
            predicates.append(("in", ref, draw(st.lists(_constants(kind), min_size=1,
                                                        max_size=3))))
        elif what == "null":
            predicates.append(("null", ref, draw(st.booleans())))
        elif what == "columns":
            op = draw(st.sampled_from(["="] + list(_NULL_SAFE)))
            predicates.append(("columns", ref, _refs(draw, tables)[0], op))
        elif kind == "string":
            pattern = "".join(draw(st.lists(st.sampled_from("ab%_"), max_size=4)))
            predicates.append(("like", ref, pattern))
    distinct = draw(st.booleans())
    order = []
    if draw(st.booleans()):
        # An output name that the select list surely produces.
        names = _output_names(items, tables)
        if names:
            for name in draw(st.lists(st.sampled_from(names), min_size=1,
                                      max_size=2, unique=True)):
                order.append((name, draw(st.booleans())))
    limit = draw(st.one_of(st.none(), st.integers(0, 4)))
    return tables, items, predicates, distinct, order, limit


def _output_names(items, tables):
    names = []
    for item in items:
        if item[0] == "*":
            names += [column for table in tables for column in NAMES[table]]
        elif item[0] == "t.*":
            names += NAMES[item[1]]
        else:
            (_, column), alias = item[1], item[2]
            names.append(alias or column)
    return sorted(set(names))


def _render_ref(ref):
    table, column = ref
    return f"{table}.{column}" if table else column


def _literal(value):
    if value is None:
        return "null"
    return f"'{value}'" if isinstance(value, str) else str(value)


def render(statement):
    tables, items, predicates, distinct, order, limit = statement
    select = []
    for item in items:
        if item[0] == "*":
            select.append("*")
        elif item[0] == "t.*":
            select.append(f"{item[1]}.*")
        else:
            text = _render_ref(item[1])
            select.append(f"{text} as {item[2]}" if item[2] else text)
    sql = ("select distinct " if distinct else "select ") + ", ".join(select)
    sql += " from " + ", ".join(tables)
    conditions = []
    for predicate in predicates:
        kind, ref = predicate[0], _render_ref(_predicate_refs(predicate)[0])
        if kind == "compare":
            conditions.append(f"{ref} {predicate[1]} {_literal(predicate[3])}")
        elif kind == "in":
            conditions.append(f"{ref} in ({', '.join(map(_literal, predicate[2]))})")
        elif kind == "null":
            conditions.append(f"{ref} is {'not ' if predicate[2] else ''}null")
        elif kind == "columns":
            conditions.append(f"{ref} {predicate[3]} {_render_ref(predicate[2])}")
        else:
            conditions.append(f"{ref} like '{predicate[2]}'")
    if conditions:
        sql += " where " + " and ".join(conditions)
    if order:
        sql += " order by " + ", ".join(f"{name} {'desc' if descending else 'asc'}"
                                        for name, descending in order)
    if limit is not None:
        sql += f" limit {limit}"
    return sql


class Unresolved(Exception):
    pass


def _resolve(ref, tables):
    table, column = ref
    if table is not None:
        if table not in tables or column not in NAMES[table]:
            raise Unresolved(ref)
        return table, column
    candidates = [name for name in tables if column in NAMES[name]]
    if len(candidates) != 1:
        raise Unresolved(ref)
    return candidates[0], column


def _predicate_refs(predicate):
    if predicate[0] == "compare":
        return [predicate[2]]
    if predicate[0] == "columns":
        return [predicate[1], predicate[2]]
    return [predicate[1]]


def _like(value, pattern):
    if not isinstance(value, str):
        return False
    regex = "".join(".*" if c == "%" else "." if c == "_" else re.escape(c)
                    for c in pattern)
    return re.fullmatch(regex, value, re.DOTALL) is not None


def _holds(predicate, env, tables):
    """SQL's answer: a comparison or ``IN`` with a NULL operand is never
    true; ``is [not] null`` and ``is [not] distinct from`` are the only ways
    to reach a NULL."""
    kind = predicate[0]
    if kind == "compare":
        _, op, ref, constant = predicate
        value = env[_resolve(ref, tables)]
        if op in _NULL_SAFE:
            return _NULL_SAFE[op](value, constant)
        if value is None or constant is None:
            return False
        if op == "=":
            return value == constant
        if op == "<>":
            return value != constant
        return value < constant if op == "<" else value >= constant
    value = env[_resolve(predicate[1], tables)]
    if kind == "columns" and predicate[3] in _NULL_SAFE:
        return _NULL_SAFE[predicate[3]](value, env[_resolve(predicate[2], tables)])
    if kind == "null":
        return (value is not None) if predicate[2] else (value is None)
    if value is None:
        return False
    if kind == "in":
        return value in predicate[2]
    if kind == "columns":
        other = env[_resolve(predicate[2], tables)]
        return other is not None and value == other
    return _like(value, predicate[2])


def _rank(value):
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, str(value))


def reference(statement, rows, join_order):
    """The answer as a list of dicts, before ORDER BY and LIMIT; raises
    ``Unresolved`` for a column the statement cannot name."""
    tables, items, predicates, distinct, order, limit = statement
    for item in items:
        if item[0] == "column":
            _resolve(item[1], tables)
    for predicate in predicates:
        for ref in _predicate_refs(predicate):
            _resolve(ref, tables)
    answer = []
    for combination in itertools.product(*(rows[table] for table in join_order)):
        env = {(table, column): value
               for table, row in zip(join_order, combination)
               for column, value in zip(NAMES[table], row)}
        if not all(_holds(predicate, env, tables) for predicate in predicates):
            continue
        out = {}
        for item in items:
            if item[0] == "*":
                for table in join_order:
                    for column in NAMES[table]:
                        out[column] = env[table, column]
            elif item[0] == "t.*":
                for column in NAMES[item[1]]:
                    out[column] = env[item[1], column]
            else:
                out[item[2] or item[1][1]] = env[_resolve(item[1], tables)]
        answer.append(out)
    if distinct:
        answer = list({tuple(row.items()): row for row in answer}.values())
    return answer


def _key(row, order):
    return [_rank(row[name]) for name, _ in order]


def _sorted_keys(rows, order):
    keys = [_key(row, order) for row in rows]
    for position in reversed(range(len(order))):
        keys.sort(key=lambda key: key[position], reverse=order[position][1])
    return keys


def _bag(rows):
    return Counter(tuple(row.items()) for row in rows)


#: Range predicates over a sorted index on a column holding a NULL, which
#: drawn examples seldom reach: ``a.n`` and ``a.k`` each hold one.
WITH_NULLS = {"a": [{"id": 0, "k": "ab", "n": 2}, {"id": 1, "k": None, "n": None},
                    {"id": 2, "k": "b", "n": -1}], "b": []}


#: A NULL join key on each side, for the hash join and the product.
JOIN_NULLS = {"a": WITH_NULLS["a"], "b": [{"k": None, "m": 1}, {"k": "ab", "m": 2}]}


def _range(column, op, constant):
    return ["a"], [("*",)], [("compare", op, (None, column), constant)], False, [], None


def _join(*predicates):
    return ["a", "b"], [("*",)], list(predicates), False, [], None


@settings(max_examples=300, deadline=None)
@given(database=databases(), statement=statements())
@example(database=_database(WITH_NULLS, "n"), statement=_range("n", "<", 3))
@example(database=_database(WITH_NULLS, "n"), statement=_range("n", ">=", 0))
@example(database=_database(WITH_NULLS, "k"), statement=_range("k", "<", "ba"))
@example(database=_database(WITH_NULLS, "k", analyze=True), statement=_range("k", ">=", "a"))
@example(database=_database(WITH_NULLS, "n"), statement=_range("n", "=", None))
@example(database=_database(WITH_NULLS), statement=_range("n", "<>", None))
@example(database=_database(JOIN_NULLS, hashed=[("b", "k")]),
         statement=_join(("columns", ("a", "k"), ("b", "k"), "=")))
@example(database=_database(JOIN_NULLS),
         statement=_join(("columns", ("a", "k"), ("b", "k"), "is not distinct from")))
@example(database=_database(WITH_NULLS), statement=_range("n", "is distinct from", 2))
@example(database=_database(WITH_NULLS), statement=_range("n", "is not distinct from", -1))
@example(database=_database(JOIN_NULLS),
         statement=_join(("in", ("a", "k"), ["ab", None])))
def test_the_executor_answers_what_a_nested_loop_answers(database, statement):
    database, rows = database
    sql = render(statement)
    tables, _, _, _, order, limit = statement
    try:
        plan = explain_query(database, sql)
    except SQLExecutionError:
        plan = None
    join_order = (re.findall(r"Scan \w+ as (\w+)", plan) if plan is not None
                  else tables)
    try:
        expected = reference(statement, rows, join_order)
    except Unresolved:
        with pytest.raises(SQLExecutionError):
            database.sql(sql)
        return
    answer = database.sql(sql)
    if order:
        keys = _sorted_keys(expected, order)
        if limit is not None:
            keys = keys[:limit]
        assert [_key(row, order) for row in answer] == keys
        assert not _bag(answer) - _bag(expected)
    elif limit is None:
        assert _bag(answer) == _bag(expected)
    else:
        assert len(answer) == min(limit, len(expected))
        assert not _bag(answer) - _bag(expected)
