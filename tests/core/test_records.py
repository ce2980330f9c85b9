"""Tests for Remy records: directories, projection, and the homogeneous
projection as the engine runs it (a record head in the chunk lowering)."""

import copy
import gc
import operator
import pickle
import sys
import tracemalloc
import weakref

import pytest

from repro.core.errors import EvaluationError, WireProtocolError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.compile import _freeze_request_value, term_fingerprint
from repro.core.records import (
    Record,
    RecordDirectory,
    directory_for,
    distinct_records,
)
from repro.core.values import CList, from_python
from repro.kleisli.engine import KleisliEngine
from repro.net.framing import encode_frame


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


class TestDirectoryLifetime:
    """A directory is interned while something uses it, and no longer."""

    LABELS = ("lifetime_only_a", "lifetime_only_b")

    def test_a_directory_is_freed_with_its_records_and_compiled_query(self):
        engine = KleisliEngine()
        head = B.record(**{label: B.const(1) for label in self.LABELS})
        term = B.ext("x", B.singleton(head, "list"), B.var("XS"), kind="list")
        for _ in range(2):  # lowered twice: the engine keeps the compiled form
            value = engine.execute(term, {"XS": CList([1, 2])}, optimize=False)
        record = next(iter(value))
        directory = weakref.ref(record.directory)
        assert tuple(sorted(self.LABELS)) in RecordDirectory._interned
        del record, value
        gc.collect()
        assert directory() is not None   # the compiled head still holds it
        engine._compiled_queries.clear()
        gc.collect()
        assert directory() is None
        assert tuple(sorted(self.LABELS)) not in RecordDirectory._interned

    def test_a_live_directory_is_the_one_for_its_labels(self):
        record = Record(dict.fromkeys(self.LABELS, 0))
        for _ in range(3):
            gc.collect()
            assert RecordDirectory.for_labels(reversed(self.LABELS)) is record.directory
            twin = pickle.loads(pickle.dumps(record))
            assert twin.directory is record.directory and twin == record

    def test_a_freed_directorys_labels_get_a_new_one(self):
        first = weakref.ref(RecordDirectory.for_labels(self.LABELS))
        gc.collect()
        assert first() is None
        again = RecordDirectory.for_labels(self.LABELS)
        assert again.labels == tuple(sorted(self.LABELS))
        assert RecordDirectory.for_labels(self.LABELS) is again


class TestRecord:
    def test_records_with_same_fields_share_a_directory(self):
        a = Record({"title": "A", "year": 1989})
        b = Record({"year": 1992, "title": "B"})
        assert a.directory is b.directory

    def test_projection(self):
        record = Record({"title": "A", "year": 1989})
        assert record.project("title") == "A"
        assert record.project("year") == 1989
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


class TestRecordContract:
    """What a record is, and what it refuses to be, whatever its layout."""

    def test_equal_exactly_on_one_directory_with_equal_values(self):
        record = Record({"a": 1, "b": "x"})
        assert record == Record({"b": "x", "a": 1})
        assert hash(record) == hash(Record({"b": "x", "a": 1}))
        assert record != Record({"a": 2, "b": "x"})
        assert Record({"a": 1}) != Record({"b": 1})
        assert Record({"a": 1}) != Record({"a": 1, "b": 1})
        assert Record({}) == Record({}) and Record({}) != Record({"a": 1})
        for other in ((1, "x"), [1, "x"], CList([1, "x"]), 1, None):
            assert record != other and other != record

    def test_true_1_and_1_0_group_and_a_nan_equals_only_itself(self):
        grouped = dict.fromkeys([Record({"a": True}), Record({"a": 1}),
                                 Record({"a": 1.0})])
        assert [type(record.project("a")) for record in grouped] == [bool]
        nan = float("nan")
        assert Record({"a": nan}) == Record({"a": nan})
        assert Record({"a": nan}) != Record({"a": float("nan")})
        assert len({Record({"a": nan}), Record({"a": nan}),
                    Record({"a": float("nan")})}) == 2

    def test_records_have_no_order(self):
        a, b = Record({"a": 1}), Record({"a": 2})
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(a, b)
            with pytest.raises(TypeError):
                compare(a, (1,))
            with pytest.raises(TypeError):
                compare((1,), a)
        with pytest.raises(TypeError):
            sorted([b, a])

    def test_a_record_is_not_iterable(self):
        record = Record({"a": 1, "b": 2})
        for attempt in (list, tuple, lambda r: [*r], lambda r: 1 in r):
            with pytest.raises((TypeError, EvaluationError)):
                attempt(record)

    def test_len_is_the_field_count(self):
        assert len(Record({"a": 1, "b": 2, "c": 3})) == 3
        assert len(Record({})) == 0
        assert not Record({}) and Record({"a": 0})

    def test_pickle_and_copies_re_intern_the_directory(self):
        inner = Record({"p": 1})
        record = Record({"r": inner, "s": CList([inner]), "t": ""})
        for twin in (pickle.loads(pickle.dumps(record)),
                     copy.copy(record), copy.deepcopy(record)):
            assert type(twin) is Record and twin == record
            assert twin.directory is record.directory
            assert twin.project("r").directory is inner.directory
        empty = pickle.loads(pickle.dumps(Record({})))
        assert empty == Record({}) and len(empty) == 0

    def test_a_raw_record_in_a_frame_is_a_wire_protocol_error(self):
        with pytest.raises(WireProtocolError):
            encode_frame({"value": Record({"a": 1})})
        with pytest.raises(WireProtocolError):
            encode_frame({"value": [Record({})]})

    def test_a_record_constant_is_not_a_tuple_constant(self):
        record = Record({"a": 1})
        items = (record.directory, *record.values)
        assert term_fingerprint(B.const(record)) != term_fingerprint(B.const(items))

    def test_tuple_dispatches_see_a_record_first(self):
        """A record is a ``tuple`` now; the dispatches that take a tuple as
        a sequence still take a record as a value (a request value freezes
        it by label, each field type-exact)."""
        record = Record({"a": 1})
        assert A._freeze(record) is record
        assert _freeze_request_value(record) == ("record", (("a", ("int", 1)),))
        for list_as in ("list", "set"):
            assert from_python(record, list_as) is record

    def test_a_bound_table_holds_under_100_bytes_per_record(self):
        """Beyond its field values and the collection's own array, a
        4 000-row, 5-field list holds one record object per row: 96 bytes
        (a record object beside a values tuple would hold 136).  A full
        collection empties the interpreter's free lists, which keep freed
        tuples of the lift's own work and belong to no value."""
        labels = ("a", "b", "c", "d", "e")
        rows = [dict(zip(labels, (index, str(index), index % 7, "x", 0.5)))
                for index in range(4000)]
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            lifted = from_python(rows, "list")
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(lifted) == 4000 and lifted[7].project("b") == "7"
        held -= sys.getsizeof(tuple(lifted))  # the collection's own array
        assert held / 4000 <= 100, held / 4000


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
