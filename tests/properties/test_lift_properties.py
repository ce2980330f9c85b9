"""A table lifted column-wise equals the same rows lifted one by one.

``from_python`` lifts a ``list``/``tuple`` of flat rows — exact ``dict``s on
one set of string keys, exact scalar values — column-wise, and a set-kind
table is deduped on its value tuples before any ``Record`` exists; anything
else goes row by row.  Over row lists that mix flat rows in every key
order, ragged and missing keys, ``None``, nested lists and dicts, ``bytes``,
``True``/``1``/``1.0``, ``-0.0``/``0.0``, distinct NaN objects, ``dict``
subclasses and non-dicts:

* for ``list``, ``bag`` and ``set``, ``from_python(rows, kind)`` is
  ``make_collection(kind, [from_python(row, kind) for row in rows])``
  element for element, in order, with every field's exact type, and
  ``infer_type`` agrees;
* an Entrez driver result is ``CSet(lift_elements(rows))``, and so is a
  relational driver result, eager or lazy, handed the same rows as
  ``(labels, value tuples)`` when they are ``dict``s on one set of keys.

``infer_type`` types a collection of records of one flat shape column-wise;
over tables of records that are one shape or mix in another directory, a
non-record, width 0, ``True`` in an ``int`` column (or ``1`` in a ``bool``
one) or a nested value, its type is the merge of its elements' types taken
one by one.

Cost: the three properties run 200 examples each in 0.7 s to 1.1 s on a
2-core box.
"""

import math
import re
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import types as T
from repro.core import values as values_module
from repro.core.records import RecordDirectory, records_on
from repro.core.values import (
    CBag,
    CList,
    CSet,
    Record,
    _merge_element_types,
    from_python,
    infer_type,
    lift_elements,
    make_collection,
)
from repro.kleisli.drivers.entrez import _link_set
from repro.kleisli.drivers.relational import RelationalDriver
from repro.relational.database import Database

from paths import exact


def nan_ids(value):
    """The NaN objects inside ``value`` by identity, in iteration order
    (:func:`exact` compares floats by ``repr``); every record on the way
    must hold its interned directory."""
    kind = type(value)
    if kind is float:
        return [id(value)] if math.isnan(value) else []
    if kind is Record:
        assert value.directory is RecordDirectory.for_labels(value.labels)
        value = value.values
    elif kind not in (CSet, CBag, CList):
        return []
    return [nan for element in value for nan in nan_ids(element)]


def shape_of(ty):
    """A type as text with its variables numbered by first appearance."""
    names = {}
    return re.sub(r"'?\b[tr]\d+\b",
                  lambda match: names.setdefault(match.group(),
                                                 f"?{len(names)}"),
                  str(ty))


class Row(dict):
    """A ``dict`` subclass: not a flat row, whatever it holds."""


NAN_A, NAN_B = float("nan"), float("nan")
#: Scalars that group or do not: ``True == 1 == 1.0``, ``-0.0 == 0.0``, two
#: NaN objects that differ and one that is itself.
scalars = st.one_of(st.sampled_from([True, False, 1, 1.0, 0, -0.0, 0.0,
                                     NAN_A, NAN_B, "x", "", b"x", b""]),
                    st.integers(-2, 2))
oddities = st.one_of(st.none(), st.lists(st.integers(0, 2), max_size=2),
                     st.dictionaries(st.sampled_from(["p", "q"]),
                                     st.integers(0, 2), max_size=2))
LABELS = ("a", "b", "c")


@st.composite
def tables(draw):
    """Mostly one flat table (labels in any order per row); sometimes one
    row with a ragged, missing or extra key, an odd value, or not a plain
    dict."""
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3,
                           unique=True))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        order = draw(st.permutations(labels))
        rows.append({label: draw(scalars) for label in order})
    if rows and draw(st.booleans()):
        at = draw(st.integers(0, len(rows) - 1))
        row = dict(rows[at])
        how = draw(st.sampled_from(["missing", "extra", "ragged", "odd",
                                    "subclass", "ordered", "non-dict"]))
        if how == "missing":
            row.pop(next(iter(row)))
        elif how == "extra":
            row["z"] = draw(scalars)
        elif how == "ragged":
            row = {("z" if label == labels[0] else label): value
                   for label, value in row.items()}
        elif how == "odd":
            row[labels[0]] = draw(oddities)
        elif how == "subclass":
            row = Row(row)
        elif how == "ordered":
            row = OrderedDict(row)
        else:
            row = draw(st.one_of(scalars, st.none(), st.just([row])))
        rows[at] = row
    return draw(st.sampled_from([list, tuple]))(rows)


@settings(max_examples=200, deadline=None)
@given(rows=tables(), kind=st.sampled_from(["list", "bag", "set"]))
def test_a_table_lifts_as_its_rows_one_by_one(rows, kind):
    lifted = from_python(rows, kind)
    reference = make_collection(kind, [from_python(row, kind) for row in rows])
    assert (exact(lifted), nan_ids(lifted)) == (exact(reference), nan_ids(reference))
    assert shape_of(infer_type(lifted)) == shape_of(infer_type(reference))


DRIVER = RelationalDriver("DB", Database("empty"))


LAZY_DRIVER = RelationalDriver("DB", Database("empty"), lazy=True)


@settings(max_examples=200, deadline=None)
@given(rows=tables())
def test_a_driver_result_is_the_set_of_its_lifted_rows(rows):
    """A relational result is ``(labels, value tuples)``: over the rows on
    one set of string keys, in the first row's key order, it lifts eagerly
    and lazily as the ``dict`` rows do."""
    expected = CSet(lift_elements(rows))
    lifted = [_link_set(list(rows))]
    if all(type(row) is dict for row in rows) and len({frozenset(row) for row in rows}) < 2:
        labels = tuple(rows[0]) if rows else ()
        result = (labels, [tuple(row[label] for label in labels) for row in rows])
        lifted += [DRIVER._rows_to_result(result), CSet(LAZY_DRIVER._rows_to_result(result))]
    for value in lifted:
        assert (exact(value), nan_ids(value)) == (exact(expected), nan_ids(expected))


def test_true_1_and_1_0_are_one_element_of_a_bound_set():
    rows = [{"a": True}, {"a": 1}, {"a": 1.0}]
    for lifted in (from_python(rows, "set"), CSet(lift_elements(rows))):
        assert exact(lifted) == ("CSet", (("record", ("a",),
                                           (("bool", True),)),))
        assert nan_ids(lifted) == []


def test_a_bound_set_hashes_no_record(monkeypatch):
    """The set is deduped on its value tuples: ``records_on`` is handed the
    three distinct rows only, so no ``Record`` exists to be hashed before
    the set does."""
    built = []

    def spy(directory, rows):
        rows = list(rows)
        built.append((directory, rows))
        return records_on(directory, rows)

    monkeypatch.setattr(values_module, "records_on", spy)
    rows = [{"a": index % 3, "b": "x"} for index in range(10)]
    lifted = from_python(rows, "set")
    assert [record.values for record in lifted] == [(0, "x"), (1, "x"),
                                                     (2, "x")]
    assert built == [(RecordDirectory.for_labels(("a", "b")),
                      [(0, "x"), (1, "x"), (2, "x")])]


#: One strategy per exact scalar type a flat column can hold.
COLUMNS = {bool: st.booleans(), int: st.integers(-2, 2),
           float: st.sampled_from([0.5, -0.0, 1.0]),
           str: st.sampled_from(["", "x"]), bytes: st.sampled_from([b"", b"x"])}
nested = st.one_of(
    st.lists(st.integers(0, 2), min_size=1, max_size=2).map(CList),
    st.integers(0, 2).map(lambda value: Record({"p": value})))


@st.composite
def record_tables(draw):
    """Records of one flat shape (width 0 included), sometimes with one
    element that is ``True`` in an ``int`` column, ``1`` in a ``bool`` one,
    nested, on another directory, or not a record."""
    labels = draw(st.lists(st.sampled_from(LABELS), max_size=3, unique=True))
    kinds = {label: draw(st.sampled_from(list(COLUMNS))) for label in labels}
    rows = [Record({label: draw(COLUMNS[kinds[label]]) for label in labels})
            for _ in range(draw(st.integers(0, 8)))]
    if rows and draw(st.booleans()):
        at = draw(st.integers(0, len(rows) - 1))
        fields = rows[at].to_dict()
        how = draw(st.sampled_from(["bool/int", "nested", "other directory",
                                    "not a record"]))
        first = labels[0] if labels else "z"
        if how == "bool/int":
            fields[first] = 1 if kinds.get(first) is bool else True
        elif how == "nested":
            fields[first] = draw(nested)
        else:
            fields["z"] = draw(COLUMNS[int])
        rows[at] = draw(COLUMNS[int]) if how == "not a record" \
            else Record(fields)
    return make_collection(draw(st.sampled_from(["list", "bag", "set"])), rows)


@settings(max_examples=200, deadline=None)
@given(table=record_tables())
def test_a_table_is_typed_as_its_rows_one_by_one(table):
    constructor = {"set": T.SetType, "bag": T.BagType,
                   "list": T.ListType}[table.kind]
    element_types = [infer_type(element) for element in table]
    reference = constructor(_merge_element_types(element_types)
                            if element_types else T.fresh_type_var())
    assert shape_of(infer_type(table)) == shape_of(reference)
