"""Tests for the SQL subset: parser, planner and executor."""

import pytest

from repro.core.errors import SQLExecutionError, SQLSyntaxError
from repro.relational import Column, Database, TableSchema
from repro.relational.sql.ast import Comparison, SelectStatement
from repro.relational.sql.parser import parse_sql
from repro.relational.sql.planner import HashJoinNode, ScanNode, explain_query, plan_query


@pytest.fixture()
def gdb():
    """A small GDB-shaped database with the three Loci22 tables."""
    database = Database("GDB")
    locus = database.create_table_from_spec(
        "locus", {"locus_id": "int", "locus_symbol": "string"}, primary_key=["locus_id"])
    gref = database.create_table_from_spec(
        "object_genbank_eref",
        {"object_id": "int", "genbank_ref": "string", "object_class_key": "int"})
    cyto = database.create_table_from_spec(
        "locus_cyto_location",
        {"locus_cyto_location_id": "int", "loc_cyto_chrom_num": "string"})
    for i in range(1, 101):
        locus.insert({"locus_id": i, "locus_symbol": f"D22S{i}"})
        gref.insert({"object_id": i, "genbank_ref": f"M{81000 + i}",
                     "object_class_key": 1 if i % 4 else 2})
        cyto.insert({"locus_cyto_location_id": i,
                     "loc_cyto_chrom_num": "22" if i % 2 == 0 else "21"})
    locus.create_hash_index("locus_id")
    gref.create_hash_index("object_id")
    cyto.create_hash_index("locus_cyto_location_id")
    database.analyze()
    return database


LOCI22_SQL = """
    select locus_symbol, genbank_ref
    from locus, object_genbank_eref, locus_cyto_location
    where locus.locus_id = locus_cyto_location.locus_cyto_location_id
      and locus.locus_id = object_genbank_eref.object_id
      and object_class_key = 1
      and loc_cyto_chrom_num = '22'
"""


class TestParser:
    def test_simple_select(self):
        statement = parse_sql("select a, b from t where a = 1")
        assert isinstance(statement, SelectStatement)
        assert len(statement.select_items) == 2
        assert len(statement.predicates) == 1

    def test_star_and_alias(self):
        statement = parse_sql("select * from locus l")
        assert statement.select_items[0].star
        assert statement.tables[0].alias == "l"

    def test_string_escaping(self):
        statement = parse_sql("select a from t where a = 'it''s'")
        assert statement.predicates[0].right == "it's"

    def test_in_like_null(self):
        statement = parse_sql(
            "select a from t where a in (1, 2) and b like 'D22%' and c is not null")
        assert len(statement.predicates) == 3

    def test_order_limit_distinct(self):
        statement = parse_sql("select distinct a from t order by a desc limit 5")
        assert statement.distinct
        assert statement.order_by[0].descending
        assert statement.limit == 5

    def test_paper_query_parses(self):
        statement = parse_sql(LOCI22_SQL)
        assert len(statement.tables) == 3
        assert len(statement.predicates) == 4

    def test_one_text_is_one_parse(self):
        """Memoised: a repeated text is the same statement object, and a
        text that does not parse raises on every call."""
        assert parse_sql(LOCI22_SQL) is parse_sql(LOCI22_SQL)
        for _ in range(3):
            with pytest.raises(SQLSyntaxError):
                parse_sql("select a from t where")

    def test_syntax_errors(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("select from t")
        with pytest.raises(SQLSyntaxError):
            parse_sql("select a from t where a = 'unterminated")
        with pytest.raises(SQLSyntaxError):
            parse_sql("select a from t where a = 1 or b = 2")
        with pytest.raises(SQLSyntaxError):
            parse_sql("select a from t extra junk")


#: Each malformed numeral, the SQL around it and where the numeral starts.
MALFORMED_NUMERALS = {
    "7...": ("select * from locus where locus_id = 7...", 37),
    "1.2.3": ("select * from locus where locus_id = 1.2.3", 37),
    "LIMIT 7..8": ("select * from locus limit 7..8", 26),
    "1e": ("select * from locus where locus_id = 1e", 37),
}

#: The CPL query that reached ``float('7...')`` through a relational driver.
CPL_WITH_A_MALFORMED_NUMERAL = \
    '{x | \\x <- GDB([query = "select * from locus where locus_id = 7..."])}'


class TestNumerals:
    """One numeral grammar: digits, at most one ``.``, an optional exponent.
    Anything else is a ``SQLSyntaxError`` with its position, in a constant
    and in ``LIMIT`` alike."""

    @pytest.mark.parametrize("text,position", MALFORMED_NUMERALS.values(),
                             ids=MALFORMED_NUMERALS.keys())
    def test_a_malformed_numeral_is_a_syntax_error_with_its_position(
            self, text, position):
        with pytest.raises(SQLSyntaxError, match=f"at position {position}$"):
            parse_sql(text)

    @pytest.mark.parametrize("numeral,value", [
        ("7", 7), ("-7", -7), ("7.", 7.0), ("7.25", 7.25), ("-2.5", -2.5),
        ("1e3", 1000.0), ("2.5E-1", 0.25), ("1e+2", 100.0)])
    def test_the_numeral_grammar(self, numeral, value):
        predicate = parse_sql(f"select * from locus where locus_id = {numeral}").predicates[0]
        assert predicate.right == value and type(predicate.right) is type(value)

    def test_limit_takes_the_same_numerals(self):
        assert parse_sql("select * from locus limit 2.5").limit == 2
        assert parse_sql("select * from locus limit 1e1").limit == 10
        with pytest.raises(SQLSyntaxError, match="at position 26"):
            parse_sql("select * from locus limit 1e999")

    def test_a_numeral_too_long_to_convert_is_a_syntax_error(self):
        with pytest.raises(SQLSyntaxError, match="at position 37"):
            parse_sql("select * from locus where locus_id = " + "1" * 5000)

    def test_through_a_cpl_query_locally_and_served(self, gdb):
        from repro.kleisli.drivers import RelationalDriver
        from repro.kleisli.engine import KleisliEngine
        from repro.kleisli.session import Session
        from repro.server import KleisliClient, KleisliServer
        from repro.server.client import RemoteQueryError

        session = Session()
        session.register_driver(RelationalDriver("GDB", gdb))
        with pytest.raises(SQLSyntaxError, match="at position 37"):
            session.query(CPL_WITH_A_MALFORMED_NUMERAL)
        engine = KleisliEngine()
        engine.register_driver(RelationalDriver("GDB", gdb))
        well_formed = CPL_WITH_A_MALFORMED_NUMERAL.replace("7...", "7")
        with KleisliServer(engine) as server, KleisliClient(server.address) as client:
            with pytest.raises(RemoteQueryError) as info:
                client.query(CPL_WITH_A_MALFORMED_NUMERAL)
            assert info.value.error_type == "SQLSyntaxError"
            # The session goes on.
            assert len(client.query(well_formed)) == 1


class TestPlanner:
    def test_single_table_equality_uses_index(self, gdb):
        plan = plan_query(gdb, parse_sql("select * from locus where locus_id = 7"))
        explanation = plan.explain()
        assert "index lookup on locus_id" in explanation

    def test_unindexed_predicate_full_scan(self, gdb):
        explanation = explain_query(gdb, "select * from locus where locus_symbol = 'D22S7'")
        assert "full scan" in explanation

    def test_join_uses_hash_join(self, gdb):
        explanation = explain_query(gdb, LOCI22_SQL)
        assert explanation.count("HashJoin") == 2

    def test_unknown_column_rejected(self, gdb):
        with pytest.raises(SQLExecutionError):
            plan_query(gdb, parse_sql("select nosuch from locus"))

    def test_ambiguous_column_rejected(self, gdb):
        database = Database("x")
        database.create_table_from_spec("a", {"k": "int"})
        database.create_table_from_spec("b", {"k": "int"})
        with pytest.raises(SQLExecutionError):
            plan_query(database, parse_sql("select k from a, b"))


class TestOrderBy:
    """An ORDER BY key is resolved before any row is read: to an output
    name, else to the output column it names; anything else is an error."""

    def test_a_qualified_key_sorts_on_its_projected_column(self, gdb):
        rows = gdb.sql("select locus_id from locus where locus_id <= 3 "
                       "order by locus.locus_id desc")
        assert [row["locus_id"] for row in rows] == [3, 2, 1]

    def test_a_column_sorts_under_its_output_alias(self, gdb):
        rows = gdb.sql("select locus_id ident from locus where locus_id <= 3 "
                       "order by locus_id desc")
        assert [row["ident"] for row in rows] == [3, 2, 1]
        rows = gdb.sql("select locus_symbol sym from locus where locus_id in (1, 2, 3) "
                       "order by sym desc")
        assert [row["sym"] for row in rows] == ["D22S3", "D22S2", "D22S1"]

    @pytest.mark.parametrize("key", ["locus_symbol", "nosuch", "locus.nosuch", "nosuch.locus_id"])
    def test_a_key_naming_no_output_column_is_an_error(self, gdb, key):
        with pytest.raises(SQLExecutionError):
            gdb.sql(f"select locus_id from locus order by {key}")

    def test_the_error_comes_before_any_row(self):
        database = Database("e")
        database.create_table_from_spec("t", {"id": "int", "name": "string"})
        assert database.sql("select id from t order by id") == []
        with pytest.raises(SQLExecutionError):
            database.sql("select id from t order by name")

    def test_mixed_types_and_nulls_sort_by_rank(self):
        database = Database("m")
        table = database.create_table_from_spec("t", {"id": "int", "v": "int"})
        table.insert_many([{"id": 1, "v": 5}, {"id": 2, "v": None},
                           {"id": 3, "v": -1}, {"id": 4, "v": None}])
        rows = database.sql("select id, v from t order by v, id desc")
        assert [row["id"] for row in rows] == [4, 2, 3, 1]


class TestLike:
    """``%`` and ``_`` are LIKE's only wildcards; everything else, ``*``,
    ``?`` and brackets among it, matches itself."""

    @pytest.fixture()
    def words(self):
        database = Database("w")
        table = database.create_table_from_spec("t", {"w": "string", "n": "int"})
        for word in ["abc", "a*", "?", "x", "[x]", "a\nb", "a.c"]:
            table.insert({"w": word, "n": 1})
        table.insert({"w": None, "n": 2})
        return database

    @pytest.mark.parametrize("pattern,matches", [
        ("a*", {"a*"}),
        ("?", {"?"}),
        ("[x]", {"[x]"}),
        ("a%", {"abc", "a*", "a\nb", "a.c"}),
        ("_", {"?", "x"}),
        ("a_c", {"abc", "a.c"}),
        ("a.c", {"a.c"}),
        ("%", {"abc", "a*", "?", "x", "[x]", "a\nb", "a.c"}),
    ])
    def test_only_percent_and_underscore_are_wildcards(self, words, pattern, matches):
        rows = words.sql(f"select w from t where w like '{pattern}'")
        assert {row["w"] for row in rows} == matches

    def test_a_value_that_is_not_a_string_fails_the_predicate(self, words):
        assert words.sql("select n from t where n like '%'") == []


class TestTupleResults:
    def test_rows_are_labels_and_value_tuples(self, gdb):
        labels, rows = gdb.rows("select locus_symbol, locus_id from locus "
                                "where locus_id in (1, 2) order by locus_id")
        assert labels == ("locus_symbol", "locus_id")
        assert rows == [("D22S1", 1), ("D22S2", 2)]

    def test_a_name_given_twice_keeps_its_first_place_and_last_value(self):
        database = Database("d")
        database.create_table_from_spec("a", {"k": "string", "x": "int"}).insert(
            {"k": "left", "x": 1})
        database.create_table_from_spec("b", {"k": "string", "y": "int"}).insert(
            {"k": "right", "y": 2})
        assert database.rows("select b.k, x, a.k from a, b") == (("k", "x"), [("left", 1)])
        assert database.sql("select a.k, b.k from a, b") == [{"k": "right"}]

    def test_a_star_of_an_unknown_table_is_an_error(self, gdb):
        with pytest.raises(SQLExecutionError):
            gdb.sql("select nosuch.* from locus")

    def test_an_inequality_between_two_tables_is_not_an_equi_join(self):
        database = Database("j")
        database.create_table_from_spec("a", {"x": "int"}).insert_many(
            {"x": x} for x in (1, 2, 3))
        database.create_table_from_spec("b", {"y": "int"}).insert_many(
            {"y": y} for y in (1, 3))
        rows = database.sql("select x, y from a, b where a.x < b.y and x <> 2")
        assert sorted((row["x"], row["y"]) for row in rows) == [(1, 3)]
        rows = database.sql("select x, y from a, b where a.x < b.y")
        assert sorted((row["x"], row["y"]) for row in rows) == [(1, 3), (2, 3)]


def _shape(statement):
    return [repr(part) for part in (
        statement.select_items, statement.tables, statement.predicates,
        statement.order_by, statement.limit, statement.distinct)]


class TestExecutor:
    def test_planning_and_running_leave_the_shared_statement_alone(self, gdb):
        """The memoised statement is shared by every request of one text, so
        neither the planner nor the executor may change it."""
        texts = [LOCI22_SQL,
                 "select distinct locus_id from locus where locus_id > 90 "
                 "and locus_symbol like 'D22S9%' order by locus_id desc limit 3"]
        for text in texts:
            statement = parse_sql(text)
            before = _shape(statement)
            first = gdb.sql(text)
            assert gdb.sql(text) == first
            assert _shape(statement) == before

    def test_projection_and_selection(self, gdb):
        rows = gdb.sql("select locus_symbol from locus where locus_id = 7")
        assert rows == [{"locus_symbol": "D22S7"}]

    def test_comparison_operators(self, gdb):
        assert len(gdb.sql("select * from locus where locus_id <= 10")) == 10
        assert len(gdb.sql("select * from locus where locus_id <> 1")) == 99
        assert len(gdb.sql("select * from locus where locus_id > 95")) == 5

    def test_in_and_like(self, gdb):
        assert len(gdb.sql("select * from locus where locus_id in (1, 2, 3)")) == 3
        assert len(gdb.sql("select * from locus where locus_symbol like 'D22S1%'")) == 12

    def test_order_by_and_limit(self, gdb):
        rows = gdb.sql("select locus_id from locus order by locus_id desc limit 3")
        assert [row["locus_id"] for row in rows] == [100, 99, 98]

    def test_distinct(self, gdb):
        rows = gdb.sql("select distinct loc_cyto_chrom_num from locus_cyto_location")
        assert sorted(row["loc_cyto_chrom_num"] for row in rows) == ["21", "22"]

    def test_column_alias(self, gdb):
        rows = gdb.sql("select locus_symbol sym from locus where locus_id = 1")
        assert rows == [{"sym": "D22S1"}]

    def test_qualified_star(self, gdb):
        rows = gdb.sql("select locus.* from locus, object_genbank_eref "
                       "where locus.locus_id = object_genbank_eref.object_id "
                       "and object_class_key = 2 and locus_id <= 8")
        assert {row["locus_id"] for row in rows} == {4, 8}

    def test_paper_join_query_results(self, gdb):
        rows = gdb.sql(LOCI22_SQL)
        # Even locus ids on chromosome 22, excluding multiples of 4 with class key 2.
        expected = [i for i in range(1, 101) if i % 2 == 0 and i % 4 != 0]
        assert sorted(int(row["genbank_ref"][1:]) - 81000 for row in rows) == expected
        assert set(rows[0]) == {"locus_symbol", "genbank_ref"}

    def test_join_equivalent_to_manual_nested_loop(self, gdb):
        joined = gdb.sql("select locus_symbol, genbank_ref from locus, object_genbank_eref "
                         "where locus.locus_id = object_genbank_eref.object_id")
        assert len(joined) == 100

    def test_cross_join_without_predicate(self, gdb):
        rows = gdb.sql("select locus.locus_id from locus, locus_cyto_location "
                       "where locus.locus_id <= 2 and locus_cyto_location_id <= 3")
        assert len(rows) == 6

    def test_null_comparison_is_false(self):
        database = Database("n")
        table = database.create_table_from_spec("t", {"a": "int", "b": "int"})
        table.insert({"a": 1, "b": None})
        assert database.sql("select * from t where b > 0") == []
        assert len(database.sql("select * from t where b is null")) == 1

    @staticmethod
    def _null_keyed():
        """``l(k, lv)`` and ``r(k, rv)``, each keyed 1, NULL, 2 at v 0, 1, 2."""
        database = Database("n")
        for name in ("l", "r"):
            table = database.create_table(TableSchema(name, [
                Column("k", "int", nullable=True), Column(name + "v", "int")]))
            table.insert_many({"k": k, name + "v": v}
                              for v, k in enumerate((1, None, 2)))
        return database

    def test_a_null_join_key_matches_no_key(self):
        database = self._null_keyed()
        for text in ("select lv, rv from l, r where l.k = r.k",
                     "select lv, rv from l, r where r.k = l.k",
                     "select lv, rv from l, r where l.k <> r.k"):
            rows = database.sql(text)
            assert all(row["lv"] != 1 and row["rv"] != 1 for row in rows), text
        assert sorted((row["lv"], row["rv"]) for row in database.sql(
            "select lv, rv from l, r where l.k = r.k")) == [(0, 0), (2, 2)]

    def test_is_not_distinct_from_joins_null_keys(self):
        database = self._null_keyed()
        null_safe = "select lv, rv from l, r where l.k is not distinct from r.k"
        assert "HashJoin l.k is not distinct from r.k" in explain_query(database, null_safe)
        assert sorted((row["lv"], row["rv"]) for row in database.sql(null_safe)) == \
            [(0, 0), (1, 1), (2, 2)]
        assert sorted((row["lv"], row["rv"]) for row in database.sql(
            "select lv, rv from l, r where l.k is distinct from r.k")) == \
            [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


class TestSortedIndex:
    """A sorted index answers what the scan of its column answers, NULLs and
    values of another type included."""

    @staticmethod
    def _database(indexed):
        database = Database("s")
        table = database.create_table(TableSchema("t", [Column("v", "int", nullable=True)]))
        table.insert_many({"v": v} for v in (3, None, 1))
        if indexed:
            table.create_sorted_index("v")
        return database

    @pytest.mark.parametrize("condition, expected", [
        ("v > 1", [3]), ("v = 3", [3]), ("v = 'x'", []), ("v >= 1", [1, 3]),
        ("v < 3", [1]), ("v > null", []), ("v = null", []), ("v <> null", []),
        ("v in (null)", []), ("v in (1, null)", [1]), ("v <> 3", [1]),
        ("v is null", [None]), ("v is not distinct from null", [None]),
        ("v is distinct from null", [1, 3]), ("v is distinct from 3", [1, None]),
        ("v is not distinct from 3", [3]), ("v is not distinct from -1", []),
    ])
    def test_the_index_answers_what_the_scan_answers(self, condition, expected):
        text = f"select v from t where {condition}"
        for indexed in (False, True):
            rows = self._database(indexed).sql(text)
            assert sorted((row["v"] for row in rows), key=str) == expected, indexed

    def test_a_range_bound_of_another_type_is_an_execution_error(self):
        for indexed in (False, True):
            with pytest.raises(SQLExecutionError):
                self._database(indexed).sql("select v from t where v > 'x'")
