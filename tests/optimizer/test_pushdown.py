"""Tests for SQL and ASN.1-path pushdown (experiments E4 / E5 correctness side)."""

import pytest

from repro.bio.gdb import build_gdb
from repro.bio.genbank import build_genbank
from repro.core.errors import DriverError
from repro.core.nrc import ast as A
from repro.core.optimizer.pushdown_sql import _constant_comparison, _render_literal
from repro.kleisli.drivers import EntrezDriver, RelationalDriver
from repro.kleisli.session import Session
from repro.relational import Database


@pytest.fixture(scope="module")
def gdb_session():
    session = Session()
    session.register_driver(RelationalDriver("GDB", build_gdb(locus_count=80)))
    return session


@pytest.fixture(scope="module")
def genbank_session():
    server = build_genbank(list(range(1, 11)), homologues_per_entry=1, sequence_length=100)
    session = Session()
    session.register_driver(EntrezDriver("GenBank", server))
    return session


LOCI22_CPL = '''
{[locus-symbol = x, genbank-ref = y] |
  [locus_symbol = \\x, locus_id = \\a, ...] <- GDB-Tab("locus"),
  [genbank_ref = \\y, object_id = a, object_class_key = 1, ...] <- GDB-Tab("object_genbank_eref"),
  [loc_cyto_chrom_num = "22", locus_cyto_location_id = a, ...] <- GDB-Tab("locus_cyto_location")}
'''


class TestDriverIntroduction:
    def test_table_function_becomes_scan(self, gdb_session):
        result = gdb_session.query('GDB-Tab("locus")')
        assert isinstance(result.optimized, A.Scan)
        assert result.optimized.request == {"table": "locus"}

    def test_raw_request_record_becomes_scan(self, gdb_session):
        result = gdb_session.query('GDB([query = "select locus_id from locus"])')
        assert isinstance(result.optimized, A.Scan)
        assert "query" in result.optimized.request

    def test_computed_argument_goes_into_args(self, gdb_session):
        result = gdb_session.query('GDB([query = "select * from " ^ "locus"])')
        assert isinstance(result.optimized, A.Scan)
        assert "query" in result.optimized.args
        assert len(result.value) == 80


class TestSQLJoinPushdown:
    def test_loci22_becomes_single_sql_query(self, gdb_session):
        """The paper's headline example: three generators become one shipped query."""
        result = gdb_session.query(LOCI22_CPL)
        assert isinstance(result.optimized, A.Scan)
        sql = result.optimized.request["query"]
        assert sql.count("select ") == 1
        for table in ("locus", "object_genbank_eref", "locus_cyto_location"):
            assert table in sql
        assert "loc_cyto_chrom_num = '22'" in sql

    def test_pushdown_preserves_results(self, gdb_session):
        optimized = gdb_session.query(LOCI22_CPL).value
        unoptimized = gdb_session.query(LOCI22_CPL, optimize=False).value
        assert optimized == unoptimized
        assert len(optimized) > 0

    def test_single_scan_request_after_pushdown(self, gdb_session):
        gdb_session.query(LOCI22_CPL)
        assert gdb_session.engine.last_eval_statistics.scan_requests == 1

    def test_selection_and_projection_pushdown(self, gdb_session):
        query = '{[sym = x] | [locus_symbol = \\x, chromosome = "22", ...] <- GDB-Tab("locus")}'
        result = gdb_session.query(query)
        assert isinstance(result.optimized, A.Scan)
        sql = result.optimized.request["query"]
        assert "chromosome = '22'" in sql
        assert result.value == gdb_session.query(query, optimize=False).value

    def test_head_referencing_whole_tuple_pushes_star(self, gdb_session):
        query = '{p | \\p <- GDB-Tab("locus"), p.chromosome = "22"}'
        result = gdb_session.query(query)
        assert isinstance(result.optimized, A.Scan)
        assert ".*" in result.optimized.request["query"]
        assert result.value == gdb_session.query(query, optimize=False).value

    def test_unpushable_condition_stays_local_and_correct(self, gdb_session):
        # string_length is not expressible in the SQL subset, so the query must
        # still run (partially pushed or fully local) with correct results.
        query = ('{p.locus_symbol | \\p <- GDB-Tab("locus"),'
                 ' string_length(p.locus_symbol) > 5}')
        result = gdb_session.query(query)
        assert result.value == gdb_session.query(query, optimize=False).value


@pytest.fixture(scope="module")
def scores_session():
    database = Database("D")
    scores = database.create_table_from_spec("t", {"id": "int", "score": "float"})
    scores.insert({"id": 1, "score": 0.5})
    scores.insert({"id": 2, "score": 2.5})
    weights = database.create_table_from_spec("u", {"id": "int", "w": "int"})
    weights.insert({"id": 1, "w": 3})
    weights.insert({"id": 2, "w": 4})
    session = Session()
    session.register_driver(RelationalDriver("D", database))
    return session


def _requests(expr):
    """Every request of a scan in ``expr``, as text."""
    if isinstance(expr, A.Scan):
        return [repr(expr.request)]
    return [text for child in expr.children() for text in _requests(child)]


class TestNonFiniteLiterals:
    """SQL has no infinity or NaN literal: a comparison with one stays in CPL."""

    @pytest.mark.parametrize("condition", ["t.score < 1e999", "t.score = 1e999",
                                           "1e999 > t.score", "t.score < -1e999"])
    @pytest.mark.parametrize("shape", [
        '{{t.id | \\t <- D-Tab("t"), {}}}',
        '{{[a = t.id, b = v.w] | \\t <- D-Tab("t"), \\v <- D-Tab("u"),'
        ' t.id = v.id, {}}}'])
    def test_the_optimized_value_is_the_unoptimized_one(self, scores_session,
                                                        condition, shape):
        query = shape.format(condition)
        result = scores_session.query(query)
        assert result.value == scores_session.query(query, optimize=False).value
        assert not any("inf" in text for text in _requests(result.optimized))

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_neither_rule_renders_one(self, value):
        comparison = A.PrimCall("lt", (A.Project(A.Var("t"), "score"), A.Const(value)))
        assert _constant_comparison(comparison, "t") is None
        assert _render_literal(value) is None
        assert _render_literal(2.5) == "2.5"

    def test_the_join_still_ships_its_key(self, scores_session):
        result = scores_session.query(
            '{[a = t.id, b = v.w] | \\t <- D-Tab("t"), \\v <- D-Tab("u"),'
            ' t.id = v.id, t.score < 1e999}')
        assert _requests(result.optimized) == [repr({"query": (
            "select t0.id c0, t0.score c1, t1.w c2 from t t0, u t1"
            " where t0.id is not distinct from t1.id")})]
        assert len(result.value) == 2

    def test_a_where_request_refuses_a_non_finite_value(self, scores_session):
        driver = scores_session.engine.drivers["D"]
        for value in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(DriverError, match="cannot be pushed into SQL"):
                driver.execute({"table": "t", "where": [
                    {"column": "score", "op": "<", "value": value}]})


class TestPathPushdown:
    def test_projection_comprehension_extends_path(self, genbank_session):
        query = '{e.accession | \\e <- GenBank([db = "na", select = "organism homo_sapiens"])}'
        # organism values are indexed lowercased with spaces; use the chromosome index instead.
        query = '{e.accession | \\e <- GenBank([db = "na", select = "chromosome 22"])}'
        result = genbank_session.query(query)
        assert isinstance(result.optimized, A.Scan)
        assert result.optimized.request.get("path", "").endswith(".accession")
        assert result.value == genbank_session.query(query, optimize=False).value
        assert len(result.value) == 10

    def test_nested_projection_chain(self, genbank_session):
        query = '{e.seq.length | \\e <- GenBank([db = "na", select = "chromosome 22"])}'
        result = genbank_session.query(query)
        assert isinstance(result.optimized, A.Scan)
        assert result.optimized.request["path"].endswith(".seq.length")
        assert result.value == genbank_session.query(query, optimize=False).value

    def test_explicit_path_request_still_works(self, genbank_session):
        query = ('GenBank([db = "na", select = "chromosome 22",'
                 ' path = "Seq-entry.seq.id..giim"])')
        result = genbank_session.query(query)
        assert len(result.value) == 10
        assert all(isinstance(uid, int) for uid in result.value)

    def test_non_projection_body_is_not_pushed(self, genbank_session):
        query = ('{[acc = e.accession, org = e.organism] |'
                 ' \\e <- GenBank([db = "na", select = "chromosome 22"])}')
        result = genbank_session.query(query)
        # A record head cannot become a single path; the loop stays local.
        assert not isinstance(result.optimized, A.Scan)
        assert result.value == genbank_session.query(query, optimize=False).value
