"""Tests for the value model: collections, variants, refs, conversions, type inference."""

import pytest

from repro.core import types as T
from repro.core.errors import EvaluationError
from repro.core.values import (
    CBag,
    CList,
    CSet,
    Record,
    Ref,
    UNIT_VALUE,
    Unit,
    Variant,
    from_python,
    infer_type,
    _merge_element_types,
    iter_collection,
    make_collection,
    to_python,
)


class TestCollections:
    def test_set_eliminates_duplicates(self):
        assert len(CSet([1, 2, 2, 3, 3, 3])) == 3

    def test_set_keeps_each_first_occurrence_in_order(self):
        """Equal elements collapse onto the first one seen, object and all
        (``1 == 1.0 == True``), and the survivors keep their first order."""
        first = Record({"x": 1})
        twin = Record({"x": 1})
        kept = tuple(CSet([2, 1.0, first, True, 1, 2.0, twin, "a"]))
        assert kept == (2, 1.0, first, "a")
        assert [type(element) for element in kept] == [int, float, Record, str]
        assert kept[2] is first

    def test_set_equality_ignores_order(self):
        assert CSet([1, 2, 3]) == CSet([3, 2, 1])
        assert hash(CSet([1, 2, 3])) == hash(CSet([3, 1, 2]))

    def test_bag_keeps_duplicates_and_ignores_order(self):
        assert len(CBag([1, 1, 2])) == 3
        assert CBag([1, 1, 2]) == CBag([2, 1, 1])
        assert CBag([1, 1, 2]) != CBag([1, 2, 2])

    def test_list_is_order_sensitive(self):
        assert CList([1, 2]) != CList([2, 1])
        assert CList([1, 2])[1] == 2

    def test_nested_collections_are_hashable(self):
        nested = CSet([CList([Record({"a": 1})]), CList([Record({"a": 2})])])
        assert len(nested) == 2
        assert CList([Record({"a": 1})]) in nested

    def test_union_semantics(self):
        assert CSet([1]).union(CSet([1, 2])) == CSet([1, 2])
        assert CBag([1]).union(CBag([1])) == CBag([1, 1])
        assert CList([1]).union(CList([2])) == CList([1, 2])

    def test_map_and_filter(self):
        assert CSet([1, 2, 3]).map(lambda x: x * 2) == CSet([2, 4, 6])
        assert CList([1, 2, 3]).filter(lambda x: x > 1) == CList([2, 3])

    def test_set_of_records_deduplicates_structurally(self):
        a = Record({"x": 1, "y": "s"})
        b = Record({"y": "s", "x": 1})
        assert len(CSet([a, b])) == 1

    def test_collection_kind_helpers(self):
        assert make_collection("set", [1, 1]) == CSet([1])
        assert make_collection("bag", [1, 1]) == CBag([1, 1])
        assert list(iter_collection(CList([1, 2]))) == [1, 2]
        with pytest.raises(EvaluationError):
            make_collection("tuple", [1])
        with pytest.raises(EvaluationError):
            iter_collection(42)


class TestSetMembership:
    def test_lookup_is_built_by_the_first_test_and_kept(self):
        rows = CSet(Record({"id": i}) for i in range(100))
        assert rows._lookup is None  # iterating or binding a table costs nothing
        assert Record({"id": 7}) in rows and Record({"id": 100}) not in rows
        lookup = rows._lookup
        assert len(lookup) == 100
        assert Record({"id": 8}) in rows
        assert rows._lookup is lookup

    def test_small_and_large_sets_agree_with_equality(self):
        for size in (3, 40):
            numbers = CSet(range(size))
            assert 1.0 in numbers and True in numbers  # 1 == 1.0 == True
            assert "1" not in numbers and size not in numbers
            assert CSet([2, 1]) in CSet([CSet([1, 2]), CSet([3])])

    def test_unhashable_probe_falls_back_to_comparison(self):
        assert [1] not in CSet(range(20))


class TestVariantAndRef:
    def test_variant_equality(self):
        assert Variant("giim", 5) == Variant("giim", 5)
        assert Variant("giim", 5) != Variant("genbank", 5)

    def test_variant_default_payload_is_unit(self):
        assert Variant("flag").value == UNIT_VALUE

    def test_unit_is_a_singleton(self):
        assert Unit() is Unit()
        assert Unit() == UNIT_VALUE

    def test_ref_identity_and_deref_requires_store(self):
        ref = Ref("Locus", "D22S1")
        assert ref == Ref("Locus", "D22S1")
        with pytest.raises(EvaluationError):
            ref.deref()

    def test_ref_resolves_through_store(self):
        class Store:
            def resolve(self, ref):
                return Record({"name": ref.identifier})

        ref = Ref("Locus", "D22S1", Store())
        assert ref.deref() == Record({"name": "D22S1"})


class TestConversions:
    def test_from_python_dict_becomes_record(self):
        value = from_python({"title": "x", "year": 1989})
        assert isinstance(value, Record)
        assert value.project("year") == 1989

    def test_from_python_nested(self):
        value = from_python({"keywd": {"a", "b"}, "authors": [{"name": "x"}]}, list_as="list")
        assert isinstance(value.project("keywd"), CSet)
        assert isinstance(value.project("authors"), CList)

    def test_from_python_list_as_set(self):
        value = from_python([1, 2, 2], list_as="set")
        assert value == CSet([1, 2])

    def test_from_python_rejects_unknown(self):
        with pytest.raises(EvaluationError):
            from_python(object())

    def test_roundtrip_to_python(self):
        original = {"title": "x", "tags": ["a", "b"], "count": 3}
        assert to_python(from_python(original)) == original

    def test_to_python_variant_and_ref(self):
        assert to_python(Variant("giim", 5)) == {"<tag>": "giim", "<value>": 5}
        assert to_python(Ref("Locus", "D22S1")) == {"<ref>": "Locus", "<id>": "D22S1"}

    def test_none_becomes_unit(self):
        assert from_python(None) == UNIT_VALUE
        assert to_python(UNIT_VALUE) is None


class TestInferType:
    def test_scalars(self):
        assert infer_type(True) == T.BOOL
        assert infer_type(3) == T.INT
        assert infer_type(2.5) == T.FLOAT
        assert infer_type("x") == T.STRING

    def test_record_type(self):
        ty = infer_type(Record({"title": "x", "year": 1989}))
        assert ty == T.RecordType({"title": T.STRING, "year": T.INT})

    def test_homogeneous_set_type(self):
        ty = infer_type(CSet([Record({"a": 1}), Record({"a": 2})]))
        assert ty == T.SetType(T.RecordType({"a": T.INT}))

    def test_variant_elements_merge_into_open_variant(self):
        ty = infer_type(CSet([Variant("uncontrolled", "x"),
                              Variant("controlled", "y")]))
        assert isinstance(ty, T.SetType)
        assert isinstance(ty.element, T.VariantType)
        assert set(ty.element.cases) >= {"uncontrolled", "controlled"}

    def test_merge_skips_equal_types_and_infers_what_unifying_each_would(self):
        """A 12 000-row table has one row type 12 000 times; only the rows
        that differ are unified.  The merged type is the one-by-one one."""
        def one_by_one(types):
            merged, subst = types[0], {}
            for ty in types[1:]:
                subst = T.unify(merged, ty, subst)
                merged = T.apply_substitution(merged, subst)
            return T.apply_substitution(merged, subst)

        row = T.RecordType({"a": T.INT, "b": T.STRING})
        open_row = T.RecordType({"a": T.INT}, row=T.fresh_row_var())
        variable = T.fresh_type_var()
        tagged = [T.VariantType({tag: T.INT}, row=T.fresh_row_var()) for tag in "pqp"]
        cases = [
            [row] * 50,
            [row, T.RecordType({"b": T.STRING, "a": T.INT}), row],
            [open_row, row, open_row, row],
            [row, open_row, row],
            [variable, row, row, variable],
            [T.SetType(open_row), T.SetType(row), T.SetType(open_row)],
            tagged + tagged,
            [T.INT, T.INT, T.INT],
        ]
        for types in cases:
            # (as text: unifying open variants mints a fresh row variable)
            assert str(_merge_element_types(list(types))) == str(one_by_one(types)), types
        # Irreconcilable rows still fall back to a fresh variable.
        assert isinstance(_merge_element_types([row, row, T.INT]), T.TypeVar)

    def test_heterogeneous_and_homogeneous_tables_infer_as_before(self):
        homogeneous = CSet(Record({"id": i, "sym": f"D{i}"}) for i in range(300))
        assert infer_type(homogeneous) == T.SetType(
            T.RecordType({"id": T.INT, "sym": T.STRING}))
        mixed = infer_type(CList([Variant("a", 1), Variant("a", 2), Variant("b", "x")]))
        assert set(mixed.element.cases) == {"a", "b"} and mixed.element.row is not None
        assert isinstance(infer_type(CList([1, 1, "x"])).element, T.TypeVar)

    def test_empty_collection_gets_type_variable(self):
        ty = infer_type(CSet())
        assert isinstance(ty, T.SetType)
        assert isinstance(ty.element, T.TypeVar)

    def test_list_and_bag_constructors(self):
        assert infer_type(CList([1])) == T.ListType(T.INT)
        assert infer_type(CBag(["a"])) == T.BagType(T.STRING)
