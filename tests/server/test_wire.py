"""The value codec's column-major ``rows`` block and its limits.

Three contracts:

* **Round trip** — for generated CPL values (records of several directories
  interleaved with scalars, zero-field records, nested collections, variants
  and ``bytes`` as fields, ``True``/``1``/``1.0``, ``-0.0``, NaN, big ints, a
  label named ``%``) ``decode_value(encode_value(v))`` is ``v`` with the same
  field types and element order, directly and through a real frame;
* **Malformed blocks** — every way a ``rows`` block can be wrong raises
  :class:`WireProtocolError`, and so does anything nested past the codec's
  depth limit (never a ``RecursionError``);
* **One string per value** — through a real frame, equal strings in the
  all-``str`` columns of one decoded value are one object, across columns
  and blocks; separate decodes share nothing, and every other column keeps
  the objects ``json`` made, so ``-0.0``/``0.0``, ``True``/``1``/``1.0``
  and NaN stay apart; ``wide_stream``'s decoded replies hold at most
  :data:`WIDE_ROW_BYTES` a row;
* **Served parity** — a set, a bag and a list cursor fetched at batch sizes
  1, 7 and 256 deliver exactly the interpreter's elements, and a cursor with
  exactly ``n`` rows left reports ``done`` on the next, empty fetch.
"""

import json
import socket
import struct
import threading

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.errors import WireProtocolError
from repro.core.records import RecordDirectory
from repro.core.values import CBag, CList, CSet, Record, UNIT_VALUE, Variant
from repro.kleisli.session import Session
from repro.net.framing import encode_frame, recv_message
from repro.server import KleisliClient, KleisliServer
from repro.server.wire import (MAX_DEPTH, MAX_EMPTY_ROWS, decode_value,
                               encode_value)

from footprint import decoded_wide_replies
from paths import exact


def through_a_frame(encoded):
    frame = encode_frame({"value": encoded})
    return json.loads(frame[4:].decode("utf-8"))["value"]


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**70, max_value=2**70),
    st.sampled_from([0, 1, 1.0, 0.0, -0.0, float("nan"), float("inf")]),
    st.floats(),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.just(UNIT_VALUE),
)

#: Few label sets, so that neighbouring records often share a directory and
#: often do not; ``()`` is the zero-field record.
LABEL_SETS = [(), ("a",), ("a", "b"), ("b", "a", "%"), ("id", "acc", "len")]


def records(fields):
    return st.sampled_from(LABEL_SETS).flatmap(
        lambda labels: st.tuples(*[fields] * len(labels)).map(
            lambda values: Record(dict(zip(labels, values)))))


def collections(elements):
    element_lists = st.lists(elements, max_size=8)
    return st.one_of(element_lists.map(CList), element_lists.map(CBag),
                     element_lists.map(CSet))


values = st.recursive(
    scalars,
    lambda children: st.one_of(
        records(children),
        # Mostly records, so runs form, split and resume around scalars.
        collections(st.one_of(records(children), records(scalars), children)),
        st.builds(Variant, st.text(max_size=4), children),
    ),
    max_leaves=30,
)


def assert_round_trip(value):
    encoded = encode_value(value)
    for payload in (encoded, through_a_frame(encoded)):
        decoded = decode_value(payload)
        assert exact(decoded) == exact(value)


def nan_inside_a_set(value, inside=False):
    kind = type(value)
    if kind is float:
        return inside and value != value
    if kind is Record:
        return any(nan_inside_a_set(field, inside) for field in value.values)
    if kind in (CSet, CBag, CList):
        return any(nan_inside_a_set(element, inside or kind is CSet)
                   for element in value)
    return kind is Variant and nan_inside_a_set(value.value, inside)


@given(value=values)
@settings(max_examples=300, deadline=None)
def test_round_trip_is_exact_directly_and_through_a_frame(value):
    # Set elements that differ only in which NaN object they hold are the
    # one known gap: pinned below, stepped around here.
    assume(not nan_inside_a_set(value))
    assert_round_trip(value)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP direction 1: json.loads hands back one NaN "
                          "object, and container equality short-circuits on "
                          "identity, so two lists that differ only in which "
                          "NaN they hold are one set element after a frame")
def test_round_trip_keeps_lists_of_distinct_nans_apart():
    """The example hypothesis found after PR 14, replayed on every run."""
    assert_round_trip(CSet([CList([float("nan")]), CList([float("nan")])]))


@given(rows=st.lists(records(scalars), max_size=12))
@settings(max_examples=200, deadline=None)
def test_a_run_is_one_block_per_directory_change(rows):
    elements = encode_value(CList(rows))["v"]
    runs = []
    for row in rows:
        if not runs or runs[-1][0] is not row.directory:
            runs.append((row.directory, []))
        runs[-1][1].append(row)
    assert [(block["%"], tuple(block["labels"]), block["n"])
            for block in elements] == \
        [("rows", directory.labels, len(run)) for directory, run in runs]


def test_flat_fields_travel_as_themselves_and_others_encoded():
    rows = CList([Record({"id": 1, "ok": True, "gc": 0.5, "acc": "W1",
                          "none": None}),
                  Record({"id": 2, "ok": False, "gc": -0.0, "acc": "W2",
                          "none": None})])
    block, = encode_value(rows)["v"]
    assert block == {"%": "rows",
                     "labels": ["acc", "gc", "id", "none", "ok"], "n": 2,
                     "c": [["W1", "W2"], [0.5, -0.0], [1, 2], [None, None],
                           [True, False]]}
    nested = CList([Record({"k": CSet([1]), "raw": b"\xff", "id": 7})])
    block, = encode_value(nested)["v"]
    assert block["c"] == [[7], [{"%": "set", "v": [1]}],
                          [{"%": "bytes", "v": "\xff"}]]
    assert exact(decode_value(encode_value(nested))) == exact(nested)


def test_a_lone_record_still_travels_as_a_record():
    record = Record({"a": 1, "inner": Record({"b": 2})})
    assert encode_value(record) == {
        "%": "record",
        "v": {"a": 1, "inner": {"%": "record", "v": {"b": 2}}}}
    assert encode_value(Variant("t", Record({"a": 1})))["v"]["%"] == "record"


def test_decoded_rows_of_a_block_share_the_interned_directory():
    rows = decode_value(encode_value(
        CList([Record({"a": i, "b": str(i)}) for i in range(5)])))
    directory = RecordDirectory.for_labels(("a", "b"))
    assert all(row.directory is directory for row in rows)


# ---------------------------------------------------------------------------
# malformed blocks, depth, variant tags
# ---------------------------------------------------------------------------

def rows_block(labels, columns, n):
    return {"%": "rows", "labels": labels, "n": n, "c": columns}


def block(labels, columns, n):
    return {"%": "list", "v": [rows_block(labels, columns, n)]}


MALFORMED = {
    "labels not a list": block("ab", [[1], [2]], 1),
    "labels missing": {"%": "list", "v": [{"%": "rows", "n": 0, "c": []}]},
    "labels an object": block({"a": 0}, [[1]], 1),
    "duplicate labels": block(["a", "a"], [[1], [2]], 1),
    "non-string label": block(["a", 1], [[1], [2]], 1),
    "unhashable label": block(["a", []], [[1], [2]], 1),
    "n missing": {"%": "list", "v": [{"%": "rows", "labels": ["a"],
                                      "c": [[1]]}]},
    "n negative": block(["a"], [[1]], -1),
    "n negative, zero fields": block([], [], -1),
    "n a bool": block(["a"], [[1]], True),
    "n a float": block(["a"], [[1]], 1.0),
    "n a string": block([], [], "2"),
    "n too large": block(["a"], [[1]], 2),
    "n too small": block(["a"], [[1]], 0),
    "columns not a list": block(["a"], {"0": [1]}, 1),
    "columns missing": {"%": "list", "v": [{"%": "rows", "labels": ["a"],
                                            "n": 1}]},
    "too few columns": block(["a", "b"], [[1]], 1),
    "too many columns": block(["a"], [[1], [2]], 1),
    "short column": block(["a", "b"], [[1, 2], [1]], 2),
    "long column": block(["a"], [[1, 2, 3]], 2),
    "column an object": block(["a"], [{"a": 1}], 1),
    "column a string of the right length": block(["a"], ["x"], 1),
    "column a number": block(["a"], [1], 1),
    "bare list as a field": block(["a"], [[[1, 2]]], 1),
    "unknown tag in a field": block(["a"], [[{"%": "frobnicate"}]], 1),
    "block in a column": block(["a"], [[rows_block(["b"], [[1]], 1)]], 1),
    "block outside a collection": rows_block(["a"], [[1]], 1),
    "block as a record field": {"%": "record", "v": {
        "f": rows_block(["a"], [[1]], 1)}},
    "block as a variant payload": {"%": "variant", "tag": "t",
                                   "v": rows_block(["a"], [[1]], 1)},
    "unhashable tag": {"%": ["list"], "v": []},
    "too many zero-field records": block([], [], MAX_EMPTY_ROWS + 1),
    # The bound is per decoded value, not per block: the second block is
    # refused before anything is built for it.
    "too many zero-field records in two blocks": {"%": "list", "v": [
        rows_block([], [], 1), {"%": "bag", "v": [
            rows_block([], [], MAX_EMPTY_ROWS)]}]},
}


@pytest.mark.parametrize("payload", MALFORMED.values(), ids=MALFORMED.keys())
def test_a_malformed_block_is_a_typed_error(payload):
    with pytest.raises(WireProtocolError):
        decode_value(payload)


def test_unsorted_labels_are_accepted_and_permuted():
    decoded = decode_value(block(["b", "c", "a"], [[1, 4], [2, 5], [3, 6]],
                                 2))
    assert exact(decoded) == exact(CList([Record({"a": 3, "b": 1, "c": 2}),
                                          Record({"a": 6, "b": 4, "c": 5})]))
    nested = decode_value(block(["z", "a"], [[{"%": "set", "v": [1]}], [True]],
                                1))
    assert exact(nested) == exact(CList([Record({"a": True,
                                                 "z": CSet([1])})]))


def test_zero_row_one_row_and_zero_field_blocks_decode():
    assert decode_value(block(["a"], [[]], 0)) == CList()
    assert decode_value(block([], [], 0)) == CList()
    assert exact(decode_value(block(["a"], [[1.0]], 1))) == \
        exact(CList([Record({"a": 1.0})]))
    assert decode_value(block([], [], 2)) == CList([Record(), Record()])
    assert len(decode_value(block([], [], MAX_EMPTY_ROWS // 4))) == \
        MAX_EMPTY_ROWS // 4


# ---------------------------------------------------------------------------
# one object per distinct string
# ---------------------------------------------------------------------------

def _strings(value):
    """Every ``str`` field of the records in ``value``, at any depth."""
    kind = type(value)
    if kind is str:
        return [value]
    if kind is Record:
        return [text for field in value.values for text in _strings(field)]
    if kind in (CSet, CBag, CList):
        return [text for element in value for text in _strings(element)]
    return _strings(value.value) if kind is Variant else []


def test_equal_strings_in_one_decoded_value_are_one_object():
    human = "Homo sapiens"
    # Three blocks (a change of directory ends a run), a nested block, and
    # labels that arrive unsorted.
    value = CList([Record({"org": human, "alias": human}),
                   Record({"org": "Mus musculus", "alias": human}),
                   Record({"name": human, "more": CBag([Record({"o": human})])}),
                   Record({"org": human, "alias": "Mus musculus"})])
    payload = through_a_frame(encode_value(value))
    decoded = decode_value(payload)
    assert exact(decoded) == exact(value)
    found = _strings(decoded)
    assert [text for text in found if text == human] == [human] * 6
    assert len({id(text) for text in found}) == 2
    unsorted = through_a_frame(block(["z", "a"], [["x y", "x y"], ["x y", "q r"]],
                                     2))
    decoded = decode_value(unsorted)
    assert len({id(text) for text in _strings(decoded) if text == "x y"}) == 1


def test_separate_decodes_share_nothing():
    value = CList([Record({"org": "Homo sapiens", "id": i}) for i in range(3)])
    first, second = (decode_value(through_a_frame(encode_value(value)))
                     for _ in range(2))
    assert exact(first) == exact(second)
    assert not {id(text) for text in _strings(first)} & \
        {id(text) for text in _strings(second)}


MIXED_COLUMNS = {
    "str and None": ["ab cd", None, "ab cd"],
    "str and bytes": ["ab cd", b"ab cd", "ab cd"],
    "str and a nested value": ["ab cd", CSet(["ab cd"]), "ab cd"],
    "str and a record": ["ab cd", Record({"f": "ab cd"}), "ab cd"],
    "-0.0 and 0.0": [-0.0, 0.0, -0.0, 0.0],
    "True, 1 and 1.0": [True, 1, 1.0, True, 1],
    "NaN": [float("nan"), 1.0, float("nan")],
}


@pytest.mark.parametrize("column", MIXED_COLUMNS.values(),
                         ids=MIXED_COLUMNS.keys())
def test_every_other_column_keeps_the_objects_json_made(column):
    value = CList([Record({"a": field, "n": index})
                   for index, field in enumerate(column)])
    encoded = encode_value(value)
    payload = through_a_frame(encoded)
    decoded = decode_value(payload)
    assert exact(decoded) == exact(value)
    (sent, _), = [block["c"] for block in payload["v"]]
    for row, item in zip(decoded, sent):
        if type(item) is not dict:  # a plain field is the frame's own object
            assert row.project("a") is item
    # Distinct NaN objects stay distinct, row by row (json makes one).
    for row, field in zip(decode_value(encoded), column):
        if field != field:
            assert row.project("a") is field


def test_zero_field_blocks_through_a_frame_decode_as_before():
    decoded = decode_value(through_a_frame(encode_value(
        CList([Record(), Record(), Record({"a": "ab cd"}), Record()]))))
    assert exact(decoded) == exact(CList([Record(), Record(),
                                          Record({"a": "ab cd"}), Record()]))
    assert decoded[0] is decoded[1]  # one record, as a zero-field block built
    with pytest.raises(WireProtocolError):
        decode_value(through_a_frame(block(["a", "b"], [["ab", "ab"], ["ab"]],
                                           2)))


#: Traced bytes a decoded ``wide_stream`` row may hold, its frame gone.
#: Measured 240.1 on Python 3.11 (a 5-field record, its distinct ``acc``,
#: ``id``, ``len`` and ``gc`` objects and its slot in the list); 305.3 when
#: each ``org`` was an object of its own.
WIDE_ROW_BYTES = 250


def test_wide_stream_replies_hold_one_org_string_per_distinct_value(
        e2e_workloads):
    held, replies = decoded_wide_replies(e2e_workloads)
    assert len(replies) == 16
    rows = [row for reply in replies for row in reply]
    assert len(rows) == 4000
    assert held / len(rows) <= WIDE_ROW_BYTES, held / len(rows)
    for reply in replies:
        orgs = {id(row.project("org")) for row in reply}
        assert len(orgs) <= 5
        assert len(orgs) == len({row.project("org") for row in reply})


def nest(levels, innermost, wrap):
    value = innermost
    for _ in range(levels):
        value = wrap(value)
    return value


class TestDepthLimit:
    def test_encoding_5000_nested_lists_is_a_typed_error(self):
        with pytest.raises(WireProtocolError, match="nests"):
            encode_value(nest(5000, CList(), lambda inner: CList([inner])))

    def test_decoding_5000_nested_lists_is_a_typed_error(self):
        payload = nest(5000, {"%": "list", "v": []},
                       lambda inner: {"%": "list", "v": [inner]})
        with pytest.raises(WireProtocolError, match="nests"):
            decode_value(payload)

    @pytest.mark.parametrize("wrap, levels", [
        (lambda inner: CList([inner]), 1),
        (lambda inner: Record({"f": inner}), 1),
        (lambda inner: Variant("t", inner), 1),
        # A list, then the block its record travels in.
        (lambda inner: CList([Record({"f": inner, "n": 1})]), 2),
    ], ids=["list", "record", "variant", "rows-block"])
    def test_exactly_the_limit_round_trips_one_more_is_refused(self, wrap,
                                                               levels):
        fits = nest(MAX_DEPTH // levels, 1, wrap)
        decoded = decode_value(through_a_frame(encode_value(fits)))
        assert exact(decoded) == exact(fits)
        with pytest.raises(WireProtocolError, match="nests"):
            encode_value(nest(MAX_DEPTH // levels + 1, 1, wrap))

    def test_the_decoder_counts_a_block_as_a_level(self):
        def lists_around(levels, innermost):
            return nest(levels, innermost,
                        lambda inner: {"%": "list", "v": [inner]})
        rows = rows_block(["a"], [[1]], 1)
        assert decode_value(lists_around(MAX_DEPTH, 1)) is not None
        assert decode_value(lists_around(MAX_DEPTH - 1, rows)) is not None
        for payload in (lists_around(MAX_DEPTH + 1, 1),
                        lists_around(MAX_DEPTH, rows)):
            with pytest.raises(WireProtocolError, match="nests"):
                decode_value(payload)

    def test_a_frame_nested_200000_deep_is_a_typed_error(self):
        payload = b'{"v":' + b"[" * 200_000 + b"]" * 200_000 + b"}"
        left, right = socket.socketpair()
        # 400 kB outgrow the socket buffer: send while the test receives.
        sender = threading.Thread(
            target=left.sendall,
            args=(struct.pack(">I", len(payload)) + payload,), daemon=True)
        sender.start()
        try:
            with pytest.raises(WireProtocolError, match="undecodable"):
                recv_message(right)
        finally:
            sender.join(timeout=5.0)
            left.close()
            right.close()
        assert not sender.is_alive()


def test_a_variant_tag_must_be_a_string():
    for tag in (123, None, ["t"], True):
        with pytest.raises(WireProtocolError, match="variant tag"):
            decode_value({"%": "variant", "tag": tag, "v": 1})
    with pytest.raises(WireProtocolError, match="variant tag"):
        decode_value({"%": "variant", "v": 1})


# ---------------------------------------------------------------------------
# served vs the interpreter
# ---------------------------------------------------------------------------

#: 14 rows: two shapes (a nested set and a variant among the fields of the
#: second), so a batch holds more than one block; 14 = 2 x 7 leaves "exactly
#: n rows left" for the batch size 7.
TABLE = ([{"id": i, "acc": f"W{i}", "gc": i / 8, "ok": i % 2 == 0}
          for i in range(9)]
         + [{"id": i, "tags": {f"t{i}", "x"}, "raw": b"\x00\xff"}
            for i in range(9, 14)])

CURSOR_QUERIES = {
    "set": r"{r | \r <- T}",
    "bag": r"{| r | \r <- T |}",
    "list": r"[| r | \r <- T |]",
}


def _bind_table(session):
    session.bind("T", TABLE, list_as="list")
    session.bind("V", Variant("hit", Record({"id": 1})))


@pytest.fixture(scope="module")
def table_server():
    with KleisliServer(session_setup=_bind_table) as server:
        yield server


@pytest.fixture(scope="module")
def reference():
    """The oracle: the interpreter, on unoptimized texts."""
    session = Session(execution_mode="interpret")
    _bind_table(session)
    return session


@pytest.mark.parametrize("kind", CURSOR_QUERIES)
@pytest.mark.parametrize("batch", [1, 7, 256])
def test_a_served_cursor_is_bit_identical_to_execute(table_server, reference,
                                                     kind, batch):
    query = CURSOR_QUERIES[kind]
    expected = reference.query(query, optimize=False).value
    assert len(expected) == len(TABLE)
    with KleisliClient(table_server.address) as client:
        cursor = client.open(query)
        fetched, replies = [], []
        while True:
            reply = client.fetch(cursor, batch)
            assert type(reply["values"]) is list
            fetched.extend(reply["values"])
            replies.append((len(reply["values"]), reply["done"]))
            if reply["done"]:
                break
        assert exact(CList(fetched)) == exact(CList(expected))
        full, rest = divmod(len(TABLE), batch)
        # A cursor with exactly ``batch`` rows left is not done yet: ``done``
        # arrives with the next fetch, which is empty (rest == 0).
        assert replies == [(batch, False)] * full + [(rest, True)]
        assert exact(list(client.stream(query, batch=batch))) == \
            exact(list(expected))
        served = client.query(query)
        assert exact(served) == exact(expected)


def test_query_replies_take_the_same_path(table_server, reference):
    with KleisliClient(table_server.address) as client:
        for query in (r"{[id = r.id, n = r.id + 1] | \r <- T, r.id < 9}",
                      "V", "[a = 1, b = {[c = 2], [c = 3]}]"):
            assert exact(client.query(query)) == \
                exact(reference.query(query, optimize=False).value)
        reply = client.request({
            "op": "query",
            "source": r"[| [id = r.id] | \r <- T, r.id < 3 |]"})
        assert reply["value"] == {"%": "list", "v": [
            {"%": "rows", "labels": ["id"], "n": 3, "c": [[0, 1, 2]]}]}
