"""Shape-once ingest equals element-by-element ingest.

``from_python`` lifts a flat table column-wise and resolves a record
directory once for a list of plain dicts that share a key set, and
``infer_type`` types a flat row shape once.  Both must give, value- and
type-exactly, what lifting and typing every element on its own gives; the
per-value recursion and the per-element merge below are the references.  A
dict with a key that is not a string is refused on both sides.
"""

import re
from collections import OrderedDict
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import types as T
from repro.core.errors import EvaluationError
from repro.core.records import RecordDirectory
from repro.core.values import (
    CBag,
    CList,
    CSet,
    Record,
    UNIT_VALUE,
    Variant,
    _merge_element_types,
    from_python,
    infer_type,
    lift_elements,
    make_collection,
)
from repro.kleisli.session import Session

from paths import exact


def lift_one_by_one(data, list_as="list"):
    """``from_python`` as the plain per-value recursion."""
    if isinstance(data, (Record, CSet, CBag, CList, Variant)):
        return data
    if hasattr(data, "keys"):
        if not all(isinstance(key, str) for key in data):
            raise EvaluationError(f"a record key that is not a string: {data!r}")
        return Record({key: lift_one_by_one(value, list_as)
                       for key, value in data.items()})
    if isinstance(data, (set, frozenset)):
        return CSet(lift_one_by_one(element, list_as) for element in data)
    if isinstance(data, (list, tuple)):
        return make_collection(
            list_as, [lift_one_by_one(element, list_as) for element in data])
    return UNIT_VALUE if data is None else data


def type_one_by_one(value):
    """``infer_type`` of a collection, every element typed and merged."""
    types = [type_one_by_one(element)
             if isinstance(element, (CSet, CBag, CList))
             else infer_type(element) for element in value]
    element = _merge_element_types(types) if types else T.fresh_type_var()
    return {"set": T.SetType, "bag": T.BagType,
            "list": T.ListType}[value.kind](element)


def assert_interned(value):
    """Every record in ``value``, at any depth, sits on the interned
    directory of its labels: the lifter resolves directories itself."""
    kind = type(value)
    if kind is Record:
        assert value.directory is RecordDirectory.for_labels(value.labels)
        for field in value.values:
            assert_interned(field)
    elif kind in (CSet, CBag, CList):
        for element in value:
            assert_interned(element)
    elif kind is Variant:
        assert_interned(value.value)


def shape_of(ty):
    """A type as text with its variables numbered by first appearance
    (every inference mints fresh ones)."""
    names = {}
    return re.sub(r"'?\b[tr]\d+\b",
                  lambda match: names.setdefault(match.group(),
                                                 f"?{len(names)}"),
                  str(ty))


class Row(dict):
    """A ``dict`` subclass: not a plain row, whatever it holds."""


MIXED = {
    "one shape": [{"id": 1, "acc": "W1"}, {"id": 2, "acc": "W2"}],
    "key order differs": [{"id": 1, "acc": "W1"}, {"acc": "W2", "id": 2},
                          {"id": 3, "acc": "W3"}],
    "key set differs mid-list": [{"a": 1, "b": 2}, {"a": 3},
                                 {"a": 4, "b": 5}, {"a": 6, "c": 7}],
    "same width, other labels": [{"a": 1, "b": 2}, {"a": 3, "c": 4}],
    "None among the fields": [{"a": 1, "b": None}, {"a": None, "b": 2},
                              {"a": 3, "b": 4}],
    "nested lists and sets": [{"a": 1, "b": [1, 2]}, {"a": 2, "b": []},
                              {"a": 3, "b": [{"c": 1}, {"c": 2}]},
                              {"a": 4, "b": {"x", "y"}}],
    "nested dict": [{"a": {"b": 1}}, {"a": {"b": 2}}],
    "a dict subclass": [{"a": 1}, Row(a=2), OrderedDict(a=3), {"a": 4}],
    "another Mapping": [{"a": 1}, MappingProxyType({"a": 2})],
    "non-string keys": [{1: "x", 2: "y"}, {1: "z", 2: "w"}],
    "two shapes, one directory": [{"a": 1}, {"a": "x"}, {"a": 2}],
    "True, 1 and 1.0 in one column": [{"a": True}, {"a": 1}, {"a": 1.0},
                                      {"a": 1}],
    "bytes are scalars": [{"a": b"\x00", "b": 1}, {"a": b"\xff", "b": 2}],
    "rows between scalars": [1, {"a": 1}, {"a": 2}, "x", {"a": 3}, None],
    "zero and one field": [{}, {}, {"a": 1}, {}],
    "CPL values pass through": [Record({"a": 1}), {"a": 2},
                                Variant("t", 1), CSet([1])],
    "empty": [],
    "a tuple of rows": ({"a": 1, "b": 2.5}, {"a": 2, "b": 3.5}),
}


@pytest.mark.parametrize("list_as", ["list", "set", "bag"])
@pytest.mark.parametrize("data", MIXED.values(), ids=MIXED.keys())
def test_run_aware_ingest_equals_element_by_element(data, list_as):
    try:
        reference = lift_one_by_one(data, list_as)
    except EvaluationError:
        with pytest.raises(EvaluationError, match="record labels are strings"):
            from_python(data, list_as=list_as)
        with pytest.raises(EvaluationError, match="record labels are strings"):
            list(lift_elements(data, list_as))
        return
    lifted = from_python(data, list_as=list_as)
    assert type(lifted) is type(reference)
    assert exact(lifted) == exact(reference)
    assert shape_of(infer_type(lifted)) == shape_of(type_one_by_one(reference))
    elements = CList(lift_elements(data, list_as))
    one_by_one = CList(lift_one_by_one(element, list_as) for element in data)
    assert exact(elements) == exact(one_by_one)
    for value in (lifted, reference, elements, one_by_one):
        assert_interned(value)


def test_none_is_lifted_to_unit_inside_a_run():
    lifted = from_python([{"a": 1, "b": 2}, {"a": None, "b": 2}])
    assert lifted[1].values == (UNIT_VALUE, 2)
    assert lifted[1].directory is lifted[0].directory


def test_two_shapes_on_one_directory_do_not_share_a_type():
    mixed = CList([Record({"a": 1}), Record({"a": "x"})])
    assert mixed[0].directory is mixed[1].directory
    assert isinstance(infer_type(mixed).element, T.TypeVar)
    assert infer_type(CList([Record({"a": 1}), Record({"a": 2})])) == \
        T.ListType(T.RecordType({"a": T.INT}))
    assert isinstance(
        infer_type(CList([Record({"a": 1}), Record({"a": True})])).element,
        T.TypeVar)


def test_same_width_rows_with_other_labels_do_not_share_a_directory():
    first, second = from_python([{"a": 1, "b": 2}, {"a": 3, "c": 4}])
    assert first.labels == ("a", "b") and second.labels == ("a", "c")
    assert second.values == (3, 4)


def test_unconvertible_values_still_raise():
    with pytest.raises(EvaluationError):
        from_python([{"a": 1}, {"a": object()}])


@pytest.mark.parametrize("data", [[{1: "a"}], [{1: "a", "b": 2}],
                                  [{"a": {1: 2}}]],
                         ids=["only key", "beside a label", "nested"])
def test_a_record_key_that_is_not_a_string_is_refused_at_bind(data):
    session = Session()
    with pytest.raises(EvaluationError, match="with key 1 .*record labels are strings"):
        session.bind("X", data, list_as="set")
    assert "X" not in session.values


def test_the_lifter_is_lazy():
    def rows():
        yield {"a": 1}
        raise AssertionError("pulled past the first row")
    assert next(lift_elements(rows())) == Record({"a": 1})


fields = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 1.0, 2.5]), st.text(max_size=2),
    st.binary(max_size=2),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from(["x", "y"]), st.integers(0, 2),
                    max_size=2),
)
KEY_ORDERS = [(), ("a",), ("a", "b"), ("b", "a"), ("a", "c"), ("c", "b", "a")]
dict_rows = st.sampled_from(KEY_ORDERS).flatmap(
    lambda keys: st.tuples(*[fields] * len(keys)).map(
        lambda values: dict(zip(keys, values))))


@given(data=st.lists(st.one_of(dict_rows, dict_rows, st.integers(0, 2)),
                     max_size=10),
       list_as=st.sampled_from(["list", "set", "bag"]))
@settings(max_examples=300, deadline=None)
def test_generated_tables_lift_and_type_as_element_by_element(data, list_as):
    lifted = from_python(data, list_as=list_as)
    reference = lift_one_by_one(data, list_as)
    assert exact(lifted) == exact(reference)
    assert_interned(lifted)
    assert_interned(reference)
    assert shape_of(infer_type(lifted)) == shape_of(type_one_by_one(reference))
