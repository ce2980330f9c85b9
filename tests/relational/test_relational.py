"""Tests for the relational substrate: schemas, tables, indexes, statistics."""

import pytest

from repro.core.errors import SchemaError, SQLExecutionError
from repro.relational import Column, Database, TableSchema


@pytest.fixture()
def loci_table():
    database = Database("GDB")
    table = database.create_table_from_spec(
        "locus", {"locus_id": "int", "locus_symbol": "string", "chromosome": "string"},
        primary_key=["locus_id"])
    for i in range(1, 51):
        table.insert({"locus_id": i, "locus_symbol": f"D22S{i}",
                      "chromosome": "22" if i % 2 == 0 else "21"})
    return database, table


class TestSchema:
    def test_column_type_validation(self):
        column = Column("year", "int", nullable=False)
        assert column.validate(1989) == 1989
        with pytest.raises(SchemaError):
            column.validate("1989")
        with pytest.raises(SchemaError):
            column.validate(None)

    def test_bool_is_not_an_int(self):
        with pytest.raises(SchemaError):
            Column("n", "int").validate(True)

    def test_unknown_column_type_rejected(self):
        with pytest.raises(SchemaError):
            Column("x", "varchar")

    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a"), Column("a")])

    def test_primary_key_must_be_a_column(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a")], primary_key=["b"])

    def test_validate_row_orders_and_fills(self):
        schema = TableSchema.from_spec("t", {"a": "int", "b": "string"})
        assert schema.validate_row({"b": "x", "a": 1}) == (1, "x")
        assert schema.validate_row({"a": 1}) == (1, None)
        with pytest.raises(SchemaError):
            schema.validate_row({"a": 1, "zz": 2})


class TestTable:
    def test_insert_and_scan(self, loci_table):
        _, table = loci_table
        assert len(table) == 50
        symbol = table.schema.position("locus_symbol")
        assert table.rows[0][symbol] == "D22S1"

    def test_primary_key_uniqueness(self, loci_table):
        _, table = loci_table
        with pytest.raises(SchemaError):
            table.insert({"locus_id": 1, "locus_symbol": "dup", "chromosome": "22"})

    def test_hash_index_lookup(self, loci_table):
        _, table = loci_table
        table.create_hash_index("chromosome")
        rows = table.lookup("chromosome", "22")
        assert len(rows) == 25
        chromosome = table.schema.position("chromosome")
        assert all(row[chromosome] == "22" for row in rows)

    def test_lookup_without_index_scans(self, loci_table):
        _, table = loci_table
        assert len(table.lookup("locus_symbol", "D22S7")) == 1

    def test_sorted_index_range(self, loci_table):
        _, table = loci_table
        table.create_sorted_index("locus_id")
        locus_id = table.schema.position("locus_id")
        rows = table.range_lookup("locus_id", low=10, high=12)
        assert sorted(row[locus_id] for row in rows) == [10, 11, 12]
        rows = table.range_lookup("locus_id", low=48, include_low=False)
        assert sorted(row[locus_id] for row in rows) == [49, 50]

    def test_index_maintained_on_insert(self, loci_table):
        _, table = loci_table
        index = table.create_hash_index("chromosome")
        table.insert({"locus_id": 99, "locus_symbol": "new", "chromosome": "22"})
        assert len(table.lookup("chromosome", "22")) == 26
        assert len(index) == 51

    def test_statistics(self, loci_table):
        _, table = loci_table
        stats = table.analyze()
        assert stats.row_count == 50
        assert stats.column("chromosome").distinct_values == 2
        assert stats.column("locus_id").minimum == 1
        assert stats.column("locus_id").maximum == 50
        assert stats.estimate_equality_matches("chromosome") == pytest.approx(25.0)


class TestDatabase:
    def test_catalog_operations(self, loci_table):
        database, _ = loci_table
        assert database.table_names() == ["locus"]
        assert database.has_table("locus")
        with pytest.raises(SQLExecutionError):
            database.table("nonexistent")

    def test_duplicate_table_rejected(self, loci_table):
        database, _ = loci_table
        with pytest.raises(SchemaError):
            database.create_table_from_spec("locus", {"x": "int"})

    def test_drop_table(self, loci_table):
        database, _ = loci_table
        database.drop_table("locus")
        assert not database.has_table("locus")
        with pytest.raises(SchemaError):
            database.drop_table("locus")

    def test_analyze_summary(self, loci_table):
        database, _ = loci_table
        summary = database.analyze()
        assert summary["locus"]["rows"] == 50
