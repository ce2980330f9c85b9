"""JSON-safe encoding of CPL values for the query-service wire protocol.

The encoding is *lossless over the CPL data model* and order-preserving:
``decode_value(encode_value(v)) == v`` for every value the evaluator can
produce (records, sets/bags/lists, variants, unit, scalars), and a
collection's element order survives the round trip — which is what lets the
soak tests assert **bit-identical** parity between a result fetched over the
wire and the same query's single-user ``execute`` value.

Scalars travel as themselves; structured values as a tagged object
``{"%": <tag>, ...}`` (the ``%`` key cannot collide with record labels,
which are plain strings in the ``v`` sub-object or the ``labels`` list).
``bytes`` are latin-1 strings under their own tag, since JSON has no byte
type.

Records inside a collection travel shape-once and column-major.  Section 4
of the paper represents a record as a shared *directory* plus a value array so
that a homogeneous collection pays the per-shape work once
(:mod:`repro.core.records`); the ``rows`` block is that representation on the
wire.  Among the elements of any encoded set, bag or list, a maximal run of
records whose ``directory`` is the same object becomes one element ::

    {"%": "rows", "labels": [l1, ..., lk], "n": n, "c": [[c1...], ..., [ck...]]}

— the labels once, then one ``n``-item list per label, in label order (``n``
carries the row count of a zero-field block, which has no columns).  A
column item whose exact type is ``bool``/``int``/``float``/``str``/``None``
is the field itself; any other field (a nested collection, a variant,
``bytes``) is encoded as a value of its own.  A collection whose elements are
all records of one directory is recognised by two C-level passes and becomes
one block; the encoder transposes the record tuples themselves and drops
the directory column (:func:`~repro.core.records.value_columns`), the
decoder zips the interned directory and the columns back together (permuting
the columns once if the labels arrive unsorted) and builds each record
straight from ``zip``'s tuple, so a row allocates only its record.  Non-record
elements and a change of directory end a run and elements keep their order,
so a mixed collection is a sequence of blocks and plain elements.  A record
that is *not* a collection element — a query's scalar result, a record field,
a variant's payload — still travels as
``{"%": "record", "v": {label: field}}``.

Structured values may nest at most :data:`MAX_DEPTH` deep, in both
directions: the codec recurses, and a peer must get a typed
:class:`~repro.core.errors.WireProtocolError`, not a ``RecursionError``.
A zero-field block is the one place where ``n`` alone sizes what the decoder
builds, so one decoded value holds at most :data:`MAX_EMPTY_ROWS` zero-field
records.

One decoded value holds one object per distinct exact ``str`` in its
all-``str`` block columns, the way ``json`` shares repeated object keys: a
value repeated down a column (an organism name, say) costs one string, not
one per row.  Only ``str`` is shared, because only there does "equal" mean
"interchangeable" (``-0.0 == 0.0``, ``True == 1``, NaN); a column that
mixes ``str`` with anything else keeps the objects ``json`` made.  Nothing
is kept across :func:`decode_value` calls.
"""

from __future__ import annotations

from itertools import groupby, repeat
from operator import itemgetter
from typing import Collection, Dict, Iterable, List

from ..core.errors import WireProtocolError
from ..core.records import RecordDirectory, value_columns
from ..core.values import (
    CBag,
    CList,
    CSet,
    Record,
    Unit,
    UNIT_VALUE,
    Variant,
)
from ..net.framing import MAX_FRAME_BYTES

__all__ = ["MAX_DEPTH", "MAX_EMPTY_ROWS", "encode_value", "decode_value",
           "encode_warnings"]

#: Most structured values (collection, record, variant) one inside another.
#: A level costs up to three JSON levels and three Python frames, so this
#: keeps both codec directions and ``json`` itself well inside the
#: interpreter's recursion limit.
MAX_DEPTH = 100

#: Most zero-field records one decoded value may hold: as many as a frame
#: could carry at three bytes (``[],``) a row, the bound before a block
#: carried its row count.  Every other record costs its fields' bytes.
MAX_EMPTY_ROWS = MAX_FRAME_BYTES // 3

_COLLECTION_TAGS = {CSet: "set", CBag: "bag", CList: "list"}
_COLLECTION_TYPES = {"set": CSet, "bag": CBag, "list": CList}

#: Exact types that are their own wire form — in a ``rows`` block, and
#: whatever ``json.loads`` produces for them.
_PLAIN = frozenset((bool, int, float, str, type(None)))

#: The type set of a column whose items the decoder shares.
_STR = frozenset((str,))

_DIRECTORY = itemgetter(0)  # of a record: its directory


def encode_value(value: object) -> object:
    """Lower one CPL value into JSON-serializable data."""
    return _encode(value, 0)


def _check_depth(depth: int) -> None:
    if depth >= MAX_DEPTH:
        raise WireProtocolError(
            f"value nests more than {MAX_DEPTH} structured levels deep")


def _encode(value: object, depth: int) -> object:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    _check_depth(depth)
    if isinstance(value, Record):
        return {"%": "record",
                "v": {label: _encode(field, depth + 1)
                      for label, field in value.items()}}
    for cls, tag in _COLLECTION_TAGS.items():
        if isinstance(value, cls):
            return {"%": tag, "v": _encode_elements(value, depth + 1)}
    if isinstance(value, Variant):
        return {"%": "variant", "tag": value.tag,
                "v": _encode(value.value, depth + 1)}
    if isinstance(value, Unit):
        return {"%": "unit"}
    if isinstance(value, bytes):
        return {"%": "bytes", "v": value.decode("latin-1")}
    raise WireProtocolError(
        f"cannot encode {type(value).__name__} for the wire")


def _encode_elements(elements: Iterable[object], depth: int) -> List[object]:
    """A collection's elements, each run of same-directory records as one
    ``rows`` block."""
    if {Record}.issuperset(map(type, elements)):
        directories = set(map(_DIRECTORY, elements))
        if len(directories) == 1:  # the homogeneous case: no per-element loop
            directory, = directories
            return [_encode_block(directory, elements, depth)]
    encoded: List[object] = []
    for directory, run in groupby(elements, _run_key):
        if directory is None:
            encoded.extend(_encode(element, depth) for element in run)
        else:
            encoded.append(_encode_block(directory, list(run), depth))
    return encoded


def _run_key(element: object) -> object:
    return element[0] if type(element) is Record else None


def _encode_block(directory: RecordDirectory, records: Collection[Record],
                  depth: int) -> dict:
    """One ``rows`` block: ``records`` (all on ``directory``), column by
    column."""
    _check_depth(depth)
    columns = list(map(list, value_columns(records)))
    for index, column in enumerate(columns):
        if not _PLAIN.issuperset(map(type, column)):
            columns[index] = [field if type(field) in _PLAIN
                              else _encode(field, depth + 1)
                              for field in column]
    return {"%": "rows", "labels": list(directory.labels), "n": len(records),
            "c": columns}


def encode_warnings(statistics: object) -> List[Dict[str, object]]:
    """The run's degradation warnings as wire-ready dicts (never omitted).

    A degraded federated run's partial results are *announced*: every
    ``run``/``query``/``fetch`` response carries a ``warnings`` list — one
    :class:`~repro.core.errors.SourceDegradedWarning` dict per source
    dropped (empty = the result is complete).  Encoding lives here, next to
    the value codec, so the wire shape of a warning is defined in one place.
    """
    if statistics is None:
        return []
    return [warning.as_dict() for warning in statistics.warnings]


def decode_value(payload: object) -> object:
    """Rebuild a CPL value from its wire encoding."""
    return _decode(payload, 0, [MAX_EMPTY_ROWS], {})


def _decode(payload: object, depth: int, empty_left: List[int],
            strings: Dict[str, str]) -> object:
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    if isinstance(payload, dict):
        _check_depth(depth)
        tag = payload.get("%")
        if tag == "record":
            fields = payload.get("v")
            if not isinstance(fields, dict):
                raise WireProtocolError("malformed record payload")
            return Record({label: _decode(field, depth + 1, empty_left,
                                          strings)
                           for label, field in fields.items()})
        if isinstance(tag, str) and tag in _COLLECTION_TYPES:
            elements = payload.get("v")
            if not isinstance(elements, list):
                raise WireProtocolError(f"malformed {tag} payload")
            return _COLLECTION_TYPES[tag](
                _decode_elements(elements, depth + 1, empty_left, strings))
        if tag == "variant":
            variant_tag = payload.get("tag")
            if not isinstance(variant_tag, str):
                raise WireProtocolError("variant tag must be a string")
            return Variant(variant_tag, _decode(payload.get("v"), depth + 1,
                                                empty_left, strings))
        if tag == "unit":
            return UNIT_VALUE
        if tag == "bytes":
            raw = payload.get("v")
            if not isinstance(raw, str):
                raise WireProtocolError("malformed bytes payload")
            return raw.encode("latin-1")
        if tag == "rows":
            raise WireProtocolError(
                "a rows block is only valid as a collection element")
        raise WireProtocolError(f"unknown wire tag {tag!r}")
    raise WireProtocolError(
        f"cannot decode {type(payload).__name__} from the wire")


def _decode_elements(elements: List[object], depth: int,
                     empty_left: List[int],
                     strings: Dict[str, str]) -> List[object]:
    decoded: List[object] = []
    for element in elements:
        if type(element) is dict and element.get("%") == "rows":
            decoded += _decode_rows(element, depth, empty_left, strings)
        else:
            decoded.append(_decode(element, depth, empty_left, strings))
    return decoded


def _decode_rows(block: dict, depth: int, empty_left: List[int],
                 strings: Dict[str, str]) -> List[Record]:
    """The records of one ``rows`` block, all on one interned directory;
    ``strings`` maps each ``str`` the value has met to its one object."""
    _check_depth(depth)
    labels, count, columns = block.get("labels"), block.get("n"), block.get("c")
    if (type(labels) is not list
            or not {str}.issuperset(map(type, labels))
            or len(set(labels)) != len(labels)):
        raise WireProtocolError(
            "rows block needs 'labels': a list of distinct strings")
    if type(count) is not int or count < 0:
        raise WireProtocolError(
            "rows block needs 'n': a non-negative integer")
    if (type(columns) is not list or len(columns) != len(labels)
            or not {list}.issuperset(map(type, columns))
            or not {count}.issuperset(map(len, columns))):
        raise WireProtocolError(
            f"rows block needs 'c': {len(labels)} lists of {count} items")
    directory = RecordDirectory.for_labels(labels)
    if not columns:
        # Only here does ``n`` alone set the size of what is built.
        empty_left[0] -= count
        if empty_left[0] < 0:
            raise WireProtocolError(
                f"more than {MAX_EMPTY_ROWS} zero-field records in one value")
        return [Record.from_directory(directory, ())] * count
    if tuple(labels) != directory.labels:
        # Labels in the sender's order: one permutation of the columns.
        columns = list(map(dict(zip(labels, columns)).__getitem__,
                           directory.labels))
    columns = [_decode_column(column, depth, empty_left, strings)
               for column in columns]
    # ``zip`` hands back its one result tuple whenever the record built from
    # it has let go, so a row allocates its record and nothing else.
    return list(map(tuple.__new__, repeat(Record),
                    zip(repeat(directory, count), *columns)))


def _decode_column(column: List[object], depth: int, empty_left: List[int],
                   strings: Dict[str, str]) -> List[object]:
    kinds = set(map(type, column))
    if kinds == _STR:
        return list(map(strings.setdefault, column, column))
    if _PLAIN.issuperset(kinds):
        return column
    return [field if type(field) in _PLAIN
            else _decode(field, depth + 1, empty_left, strings)
            for field in column]
