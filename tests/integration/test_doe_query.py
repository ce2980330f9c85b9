"""Integration test: the paper's "impossible" DOE query, end to end.

*Find information on the known DNA sequences on human chromosome 22, as well
as information on homologous sequences from other organisms* — answered by
joining GDB (relational) with GenBank (ASN.1/Entrez links), returning a nested
relation, exactly as Section 3 of the paper describes.
"""

import pytest

from repro.core.nrc import ast as A
from repro.core.values import CSet, Record

LOCI22 = '''
define Loci22 == {[locus-symbol = x, genbank-ref = y] |
  [locus_symbol = \\x, locus_id = \\a, ...] <- GDB-Tab("locus"),
  [genbank_ref = \\y, object_id = a, object_class_key = 1, ...] <- GDB-Tab("object_genbank_eref"),
  [loc_cyto_chrom_num = "22", locus_cyto_location_id = a, ...] <- GDB-Tab("locus_cyto_location")}
'''

ASN_IDS = '''
define ASN-IDs == \\accession =>
  GenBank([db = "na", select = "accession " ^ accession, path = "Seq-entry.seq.id..giim"])
'''

DOE_QUERY = ('{[locus = locus, homologs = NA-Links(uid)] |'
             ' \\locus <- Loci22, \\uid <- ASN-IDs(locus.genbank-ref)}')


@pytest.fixture()
def doe_session(integrated_session):
    integrated_session.run(LOCI22)
    integrated_session.run(ASN_IDS)
    return integrated_session


class TestLoci22:
    def test_loci22_matches_direct_sql(self, doe_session, chr22_dataset):
        value = doe_session.run("Loci22")
        direct = chr22_dataset.gdb.sql(
            "select locus_symbol, genbank_ref"
            " from locus, object_genbank_eref, locus_cyto_location"
            " where locus.locus_id = locus_cyto_location.locus_cyto_location_id"
            " and locus.locus_id = object_genbank_eref.object_id"
            " and object_class_key = 1 and loc_cyto_chrom_num = '22'")
        expected = CSet([Record({"locus-symbol": row["locus_symbol"],
                                 "genbank-ref": row["genbank_ref"]}) for row in direct])
        assert value == expected
        assert len(value) > 5

    def test_loci22_is_shipped_as_one_sql_query(self, doe_session):
        result = doe_session.query("Loci22")
        assert isinstance(result.optimized, A.Scan)
        assert doe_session.engine.last_eval_statistics.scan_requests == 1


class TestDOEQuery:
    def test_answer_is_a_nested_relation_with_homologs(self, doe_session):
        answer = doe_session.run(DOE_QUERY)
        assert len(answer) > 5
        for row in answer:
            assert set(row.labels) == {"locus", "homologs"}
            locus = row.project("locus")
            assert set(locus.labels) == {"locus-symbol", "genbank-ref"}
            homologs = row.project("homologs")
            assert isinstance(homologs, CSet)

    def test_every_locus_with_links_reports_nonhuman_homologs(self, doe_session):
        answer = doe_session.run(DOE_QUERY)
        with_homologs = [row for row in answer if len(row.project("homologs"))]
        assert with_homologs, "the synthetic GenBank always precomputes some links"
        for row in with_homologs:
            for link in row.project("homologs"):
                assert link.project("organism") != "Homo sapiens"

    def test_optimized_and_unoptimized_agree(self, doe_session):
        assert doe_session.query(DOE_QUERY).value == \
            doe_session.query(DOE_QUERY, optimize=False).value

    def test_asn_ids_returns_sequence_ids(self, doe_session, chr22_dataset):
        locus_ids = chr22_dataset.chromosome22_locus_ids()
        from repro.bio.gdb import accession_for_locus

        ids = doe_session.run(f'ASN-IDs("{accession_for_locus(locus_ids[0])}")')
        assert len(ids) == 1
        assert all(isinstance(value, int) for value in ids)

    def test_html_view_of_the_answer_renders(self, doe_session):
        answer = doe_session.run(DOE_QUERY)
        html = doe_session.print_html(answer, title="Chromosome 22 homologs")
        assert "<table" in html and "locus" in html


class TestParameterisedView:
    """Figure 1: the form lets users pick a chromosome and band; underneath is a CPL function."""

    def test_band_parameterised_view(self, doe_session):
        doe_session.run('''
            define loci-in-band == \\band =>
              {[locus-symbol = x, band = b] |
                [locus_symbol = \\x, locus_id = \\a, ...] <- GDB-Tab("locus"),
                [loc_cyto_chrom_num = "22", locus_cyto_location_id = a,
                 loc_cyto_band_start = \\b, ...] <- GDB-Tab("locus_cyto_location"),
                b = band}
        ''')
        all_bands = doe_session.run(
            '{c.loc_cyto_band_start | \\c <- GDB-Tab("locus_cyto_location"),'
            ' c.loc_cyto_chrom_num = "22"}')
        band = sorted(all_bands)[0]
        rows = doe_session.run(f'loci-in-band("{band}")')
        assert len(rows) >= 1
        assert all(row.project("band") == band for row in rows)


class TestTupleRows:
    """GDB's answer crosses from ``Table.rows`` to the records as value
    tuples, locally and over the simulated link: the dict view
    ``Database.sql`` is never called, and no row carrying a GDB column
    reaches ``values._flat_table``, the dict-row lift (the Entrez link rows
    still take it)."""

    @pytest.mark.parametrize("remote", [False, True], ids=["local", "with_latency"])
    def test_the_doe_query_lifts_no_dict_row(self, chr22_dataset, monkeypatch, remote):
        from repro.core import values
        from repro.kleisli.drivers import EntrezDriver, RelationalDriver
        from repro.kleisli.session import Session
        from repro.relational import Database

        def session(gdb_driver):
            session = Session()
            session.register_driver(gdb_driver)
            session.register_driver(EntrezDriver("GenBank", chr22_dataset.genbank))
            session.run(LOCI22)
            session.run(ASN_IDS)
            return session

        gdb = chr22_dataset.gdb
        expected = session(RelationalDriver("GDB", gdb)).run(DOE_QUERY)
        gdb_columns = {column for table in gdb.tables.values()
                       for column in table.schema.column_names}
        flat_table = values._flat_table

        def no_gdb_dict_rows(rows):
            assert not any(gdb_columns & set(row) for row in rows
                           if isinstance(row, dict)), rows
            return flat_table(rows)

        def no_dict_view(self, text):
            raise AssertionError(f"Database.sql({text!r})")

        monkeypatch.setattr(values, "_flat_table", no_gdb_dict_rows)
        monkeypatch.setattr(Database, "sql", no_dict_view)
        driver = (RelationalDriver.with_latency("GDB", gdb, latency=0.001) if remote
                  else RelationalDriver("GDB", gdb))
        answer = session(driver).run(DOE_QUERY)
        assert answer == expected
        assert len(answer) > 5
        assert any(len(row.project("homologs")) for row in answer)
