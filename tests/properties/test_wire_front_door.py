"""Wire frames are untrusted input: the codec's one answer is a value or a typed error.

* **Round trip** — generated values (flat and nested records, mixed
  collections, zero-field records) survive ``encode_value`` →
  ``json.dumps``/``json.loads`` → ``decode_value`` exactly, also when every
  ``rows`` block's labels arrive in another order (its columns with them);
* **Mutated blocks** — a block with a wrong or negative ``n``, a ragged or
  non-list column, a duplicate or non-string label, a missing key or a
  ``rows`` block inside a column decodes to a value or raises
  :class:`WireProtocolError`, never another exception (every mutation but a
  zero-field block's new ``n`` is refused);
* **Arbitrary bytes** — whatever reaches ``recv_message`` on a socket pair
  (random bytes, and frames of encoded values with bytes flipped, cut or
  inserted) gives a message whose value decodes, or a ``WireProtocolError``.

Set elements that differ only in which NaN object they hold are stepped
around, as in ``tests/server/test_wire.py``, which pins that gap.
"""

import json
import socket
import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.errors import WireProtocolError
from repro.core.values import CBag, CList, CSet, Record, UNIT_VALUE, Variant
from repro.net.framing import encode_frame, recv_message
from repro.server.wire import decode_value, encode_value

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2**70, max_value=2**70),
    st.floats(), st.text(max_size=6), st.binary(max_size=4),
    st.just(UNIT_VALUE))

#: Few label sets, so that neighbouring records often share a directory;
#: ``()`` is the zero-field record.
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
        # Homogeneous runs (one block), mixed runs, and anything.
        collections(records(scalars)),
        collections(st.one_of(records(children), children)),
        st.builds(Variant, st.text(max_size=3), children)),
    max_leaves=24)


def exact(value):
    """Equal exactly when two CPL values are the same value (see
    ``tests/server/test_wire.py``)."""
    kind = type(value)
    if kind is Record:
        return ("record", value.directory.labels,
                tuple(exact(field) for field in value.values))
    if kind in (CSet, CBag, CList):
        return (kind.__name__, tuple(exact(element) for element in value))
    if kind is Variant:
        return ("variant", exact(value.tag), exact(value.value))
    if kind is float:
        return ("float", repr(value))
    return (kind.__name__, value)


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


def through_json(encoded):
    return json.loads(json.dumps({"value": encoded}))["value"]


def blocks(payload):
    """Every ``rows`` block in a decoded-JSON payload, outermost first."""
    found = []
    stack = [payload]
    while stack:
        node = stack.pop()
        if type(node) is dict:
            if node.get("%") == "rows":
                found.append(node)
            stack.extend(node.values())
        elif type(node) is list:
            stack.extend(node)
    return found


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------

@given(value=values, data=st.data())
@settings(max_examples=150, deadline=None)
def test_round_trip_is_exact_with_labels_in_any_order(value, data):
    assume(not nan_inside_a_set(value))
    payload = through_json(encode_value(value))
    assert exact(decode_value(payload)) == exact(value)
    for block in blocks(payload):
        order = data.draw(st.permutations(range(len(block["labels"]))))
        block["labels"] = [block["labels"][i] for i in order]
        block["c"] = [block["c"][i] for i in order]
    assert exact(decode_value(payload)) == exact(value)


# ---------------------------------------------------------------------------
# mutated blocks
# ---------------------------------------------------------------------------

def _first_field(block):
    return next(index for index, column in enumerate(block["c"]) if column)


MUTATIONS = {
    "n one more": lambda block, draw: block.update(n=block["n"] + 1),
    "n one less": lambda block, draw: block.update(n=block["n"] - 1),
    "n negative": lambda block, draw: block.update(
        n=-draw(st.integers(1, 2**70))),
    "n not an int": lambda block, draw: block.update(
        n=draw(st.sampled_from([True, 1.0, "1", None, [1]]))),
    "a column one short": lambda block, draw: block["c"][
        _first_field(block)].pop(),
    "a column one long": lambda block, draw: block["c"][
        draw(st.integers(0, len(block["c"]) - 1))].append(0),
    "a column not a list": lambda block, draw: block["c"].__setitem__(
        draw(st.integers(0, len(block["c"]) - 1)),
        draw(st.sampled_from([{}, "ab", 3, None, tuple()]))),
    "a column dropped": lambda block, draw: block["c"].pop(),
    "a label duplicated": lambda block, draw: (
        block["labels"].append(block["labels"][0]),
        block["c"].append(list(block["c"][0]))),
    "a label not a string": lambda block, draw: block["labels"].__setitem__(
        draw(st.integers(0, len(block["labels"]) - 1)),
        draw(st.sampled_from([1, None, ["a"], {"a": 1}, True]))),
    "labels missing": lambda block, draw: block.pop("labels"),
    "n missing": lambda block, draw: block.pop("n"),
    "columns missing": lambda block, draw: block.pop("c"),
    "a block inside a column": lambda block, draw: block["c"][
        _first_field(block)].__setitem__(0, {"%": "rows", "labels": ["a"],
                                             "n": 1, "c": [[1]]}),
}

#: Mutations a zero-field block cannot take (it has no column or label).
NEEDS_A_FIELD = {"a column one short", "a column one long",
                 "a column not a list", "a column dropped",
                 "a label duplicated", "a label not a string",
                 "a block inside a column"}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
@given(value=collections(st.one_of(records(scalars),
                                   collections(records(scalars)))),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_a_mutated_block_decodes_or_is_a_typed_error(name, value, data):
    payload = through_json(encode_value(value))
    candidates = [block for block in blocks(payload)
                  if block["n"] and (block["labels"] or name not in NEEDS_A_FIELD)]
    assume(candidates)
    block = data.draw(st.sampled_from(candidates))
    MUTATIONS[name](block, data.draw)
    refused = name not in ("n one more", "n one less") or bool(block["labels"])
    try:
        decode_value(payload)
    except WireProtocolError:
        return
    assert not refused, name


# ---------------------------------------------------------------------------
# arbitrary bytes through a socket
# ---------------------------------------------------------------------------

def receive(raw):
    """``recv_message`` on the far end of a socket pair fed ``raw``."""
    left, right = socket.socketpair()
    try:
        left.sendall(raw)
        left.close()
        return recv_message(right)
    finally:
        right.close()


def framed(payload):
    return struct.pack(">I", len(payload)) + payload


@st.composite
def damaged_frames(draw):
    """A frame of an encoded value, its payload bytes flipped, cut or
    grown; sometimes the length prefix left as it was."""
    value = draw(collections(st.one_of(records(scalars), scalars)))
    payload = bytearray(encode_frame({"value": encode_value(value)})[4:])
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, max(len(payload) - 1, 0)))
        edit = draw(st.sampled_from(["flip", "cut", "insert"]))
        if edit == "flip" and payload:
            payload[at] = draw(st.sampled_from(b'{}[],:"0123456789-n%ce'))
        elif edit == "cut":
            del payload[at:at + draw(st.integers(1, 8))]
        else:
            payload[at:at] = draw(st.binary(min_size=1, max_size=6))
    if draw(st.booleans()):
        return framed(bytes(payload))
    return struct.pack(">I", draw(st.integers(0, 2**32 - 1))) + bytes(payload)


@given(raw=st.one_of(st.binary(max_size=64),
                     st.binary(max_size=64).map(framed), damaged_frames()))
@settings(max_examples=400, deadline=None)
def test_arbitrary_bytes_give_a_value_or_a_typed_error(raw):
    try:
        message = receive(raw)
        if message is not None:
            decode_value(message.get("value"))
    except WireProtocolError:
        pass
