"""Tests for Remy records: directories, projection, and the homogeneous
projection as the engine runs it (a record head in the chunk lowering)."""

import copy
import pickle

import pytest

from repro.core.errors import EvaluationError
from repro.core.nrc import builder as B
from repro.core.records import (
    Record,
    RecordDirectory,
    directory_for,
    distinct_records,
)
from repro.core.values import CList
from repro.kleisli.engine import KleisliEngine


class TestRecordDirectory:
    def test_directories_are_interned_by_field_set(self):
        a = directory_for(["title", "year"])
        b = directory_for(["year", "title"])
        assert a is b

    def test_different_field_sets_get_different_directories(self):
        assert directory_for(["a"]) is not directory_for(["a", "b"])

    def test_slot_lookup_and_errors(self):
        directory = directory_for(["x", "y"])
        assert directory.slot_of("x") != directory.slot_of("y")
        assert "x" in directory
        with pytest.raises(EvaluationError):
            directory.slot_of("missing")


    def test_a_pickled_record_is_on_the_interned_directory(self):
        """A record read back from ``pickle`` (a spilled batch) or ``copy``
        shares the in-memory directory, so it equals its twin by identity
        plus values."""
        record = Record({"title": "A", "year": 1989})
        for twin in (pickle.loads(pickle.dumps(record)),
                     copy.deepcopy(record)):
            assert twin.directory is record.directory
            assert twin == record and hash(twin) == hash(record)
        assert pickle.loads(pickle.dumps(Record({"title": "B", "year": 1989}))) \
            != record


class TestRecord:
    def test_records_with_same_fields_share_a_directory(self):
        a = Record({"title": "A", "year": 1989})
        b = Record({"year": 1992, "title": "B"})
        assert a.directory is b.directory

    def test_projection(self):
        record = Record({"title": "A", "year": 1989})
        assert record.project("title") == "A"
        assert record["year"] == 1989
        with pytest.raises(EvaluationError):
            record.project("missing")

    def test_get_with_default(self):
        record = Record({"a": 1})
        assert record.get("a") == 1
        assert record.get("b", "fallback") == "fallback"

    def test_equality_is_by_content(self):
        assert Record({"a": 1, "b": 2}) == Record({"b": 2, "a": 1})
        assert Record({"a": 1}) != Record({"a": 2})
        assert Record({"a": 1}) != Record({"a": 1, "b": 2})

    def test_from_directory_fast_path(self):
        directory = directory_for(["a", "b"])
        record = Record.from_directory(directory, [1, 2])
        assert record.to_dict() == {"a": 1, "b": 2}
        with pytest.raises(EvaluationError):
            Record.from_directory(directory, [1])

    def test_with_without_restrict(self):
        record = Record({"a": 1, "b": 2, "c": 3})
        assert record.with_fields(d=4).project("d") == 4
        assert record.without_fields("b").labels == ("a", "c")
        assert record.restrict(["a", "c"]) == Record({"a": 1, "c": 3})

    def test_records_are_hashable_set_elements(self):
        records = {Record({"a": 1}), Record({"a": 1}), Record({"a": 2})}
        assert len(records) == 2


def _project(rows, *labels):
    """``[| [l = r.l, ...] | \\r <- rows |]`` through the chunked lowering."""
    head = B.record(**{label: B.project(B.var("r"), label) for label in labels})
    expr = B.ext("r", B.singleton(head, "list"), B.var("T"), kind="list")
    return list(KleisliEngine().stream(expr, {"T": CList(rows)},
                                       optimize=False))


class TestHomogeneousProjection:
    def _homogeneous(self, count=100):
        return [Record({"locus": f"D22S{i}", "chromosome": "22", "length": i})
                for i in range(count)]

    def test_head_matches_plain_projection(self):
        records = self._homogeneous()
        projected = _project(records, "locus", "length")
        assert projected == [Record({"locus": r.project("locus"),
                                     "length": r.project("length")})
                             for r in records]
        assert {id(r.directory) for r in projected} == {
            id(directory_for(["locus", "length"]))}

    def test_single_field_head_builds_one_slot_records(self):
        assert _project(self._homogeneous(50), "length") == [
            Record({"length": i}) for i in range(50)]

    def test_head_falls_back_on_heterogeneous_input(self):
        mixed = [Record({"a": 1, "b": 2}), Record({"a": 3}), Record({"a": 4, "b": 5})]
        assert _project(mixed, "a") == [Record({"a": 1}), Record({"a": 3}),
                                        Record({"a": 4})]

    def test_head_error_on_missing_field(self):
        with pytest.raises(EvaluationError) as raised:
            _project(self._homogeneous(8), "locus", "missing")
        with pytest.raises(EvaluationError) as plain:
            self._homogeneous(1)[0].project("missing")
        assert str(raised.value) == str(plain.value)


class TestDistinctRecords:
    def test_keeps_first_occurrences_across_calls(self):
        directory = directory_for(["a", "b"])
        seen = set()
        first = distinct_records(directory, [(1, "x"), (2, "y"), (1, "x")], seen)
        assert first == [Record({"a": 1, "b": "x"}), Record({"a": 2, "b": "y"})]
        assert all(record.directory is directory for record in first)
        assert distinct_records(directory, [(2, "y"), (3, "z")], seen) == [
            Record({"a": 3, "b": "z"})]
        assert seen == {(1, "x"), (2, "y"), (3, "z")}

    def test_key_groups_what_a_set_of_the_records_groups(self):
        directory = directory_for(["v"])
        nan = float("nan")
        rows = [(1,), (1.0,), (True,), (nan,), (nan,), (float("nan"),)]
        records = [Record.from_directory(directory, row) for row in rows]
        assert distinct_records(directory, rows, set()) == list(dict.fromkeys(records))
