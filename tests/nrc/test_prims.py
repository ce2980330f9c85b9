"""Tests for the built-in primitives (the structural-recursion derived operations)."""

import pytest

from repro.core.errors import EvaluationError
from repro.core.nrc.prims import lookup_primitive, primitive_names, register_primitive
from repro.core.values import CBag, CList, CSet, Record, Variant


def prim(name, *args):
    return lookup_primitive(name)(*args)


class TestArithmeticAndComparison:
    def test_arithmetic(self):
        assert prim("add", 2, 3) == 5
        assert prim("sub", 2, 3) == -1
        assert prim("mul", 2, 3) == 6
        assert prim("div", 7, 2) == 3          # integer division on ints
        assert prim("div", 7.0, 2) == 3.5
        assert prim("mod", 7, 3) == 1
        assert prim("neg", 4) == -4

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            prim("div", 1, 0)
        with pytest.raises(EvaluationError):
            prim("mod", 1, 0)

    def test_type_errors(self):
        with pytest.raises(EvaluationError):
            prim("add", 1, "x")
        with pytest.raises(EvaluationError):
            prim("add", True, 1)

    def test_comparisons(self):
        assert prim("lt", 1, 2) is True
        assert prim("ge", "b", "a") is True
        with pytest.raises(EvaluationError):
            prim("lt", 1, "a")

    def test_equality_is_structural(self):
        assert prim("eq", Record({"a": 1}), Record({"a": 1})) is True
        assert prim("neq", CSet([1]), CSet([2])) is True

    def test_arity_checking(self):
        with pytest.raises(EvaluationError):
            prim("add", 1)


class TestStringsAndBooleans:
    def test_boolean_connectives(self):
        assert prim("and", True, False) is False
        assert prim("or", True, False) is True
        assert prim("not", False) is True
        with pytest.raises(EvaluationError):
            prim("and", 1, True)

    def test_string_operations(self):
        assert prim("string_concat", "a", "b") == "ab"
        assert prim("string_length", "abc") == 3
        assert prim("string_upper", "acgt") == "ACGT"
        assert prim("string_contains", "chromosome 22", "22") is True
        assert prim("string_startswith", "D22S1", "D22") is True
        assert prim("string_split", "a,b", ",") == CList(["a", "b"])
        assert prim("string_of_int", 81001) == "81001"
        assert prim("int_of_string", "42") == 42
        with pytest.raises(EvaluationError):
            prim("int_of_string", "not a number")


class TestCollectionPrimitives:
    def test_aggregates(self):
        assert prim("count", CSet([1, 2, 3])) == 3
        assert prim("sum", CBag([1, 1, 2])) == 4
        assert prim("avg", CList([2, 4])) == 3
        assert prim("max", CSet(["a", "c", "b"])) == "c"
        assert prim("min", CSet([3, 1])) == 1
        with pytest.raises(EvaluationError):
            prim("avg", CSet())
        with pytest.raises(EvaluationError):
            prim("max", CList())

    def test_membership_and_emptiness(self):
        assert prim("isempty", CSet()) is True
        assert prim("member", 2, CSet([1, 2])) is True
        assert prim("member", Record({"a": 1}), CSet([Record({"a": 1})])) is True

    def test_structure_manipulation(self):
        assert prim("flatten", CSet([CSet([1]), CSet([2, 3])])) == CSet([1, 2, 3])
        assert prim("distinct", CList([1, 1, 2])) == CList([1, 2])
        assert prim("set_of", CList([1, 1, 2])) == CSet([1, 2])
        assert prim("bag_of", CSet([1, 2])) == CBag([1, 2])
        assert prim("list_of", CBag([1])) == CList([1])
        assert prim("setunion", CSet([1]), CSet([2])) == CSet([1, 2])
        assert prim("setdiff", CSet([1, 2]), CSet([2])) == CSet([1])
        assert prim("setintersect", CSet([1, 2]), CSet([2, 3])) == CSet([2])

    def test_ordering_and_indexing(self):
        assert prim("sort", CSet([3, 1, 2])) == CList([1, 2, 3])
        assert prim("head", CList(["x", "y"])) == "x"
        assert prim("nth", CList([10, 20, 30]), 1) == 20
        assert prim("take", CList([1, 2, 3]), 2) == CList([1, 2])
        with pytest.raises(EvaluationError):
            prim("nth", CList([1]), 5)
        with pytest.raises(EvaluationError):
            prim("head", CSet())

    def test_sort_handles_mixed_nested_values(self):
        mixed = CSet([Record({"a": 2}), Record({"a": 1})])
        assert prim("sort", mixed) == CList([Record({"a": 1}), Record({"a": 2})])

    def test_record_and_variant_helpers(self):
        assert prim("record_labels", Record({"b": 1, "a": 2})) == CList(["a", "b"])
        assert prim("variant_tag", Variant("giim", 1)) == "giim"
        assert prim("variant_value", Variant("giim", 1)) == 1
        with pytest.raises(EvaluationError):
            prim("variant_tag", 42)


class TestIndexAndProbe:
    def _pairs(self, *pairs):
        return CList(Record({"key": key, "row": row}) for key, row in pairs)

    def test_groups_keep_source_order_and_duplicates(self):
        index = prim("index", self._pairs((1, "a"), (2, "b"), (1, "c"), (1, "a")))
        assert prim("probe", index, 1) == CList(["a", "c", "a"])
        assert prim("probe", index, 2) == CList(["b"])
        assert prim("probe", index, 3) == CList()
        assert not prim("isempty", index)

    def test_keys_equal_under_eq_share_a_group(self):
        index = prim("index", self._pairs((1, "int"), (1.0, "float"), (True, "bool"),
                                          (0.0, "zero"), (-0.0, "minus zero")))
        assert prim("probe", index, 1) == CList(["int", "float", "bool"])
        assert prim("probe", index, -0.0) == CList(["zero", "minus zero"])
        assert prim("probe", index, Record({"k": 1})) == CList()

    def test_a_key_unequal_to_itself_is_in_no_group(self):
        nan = float("nan")
        index = prim("index", self._pairs((nan, "x"), (nan, "y")))
        assert prim("probe", index, nan) == CList()
        assert not prim("isempty", index)  # the rows were there to compare

    def test_empty_index_and_type_errors(self):
        assert prim("isempty", prim("index", CList()))
        with pytest.raises(EvaluationError):
            prim("index", CList([1]))
        with pytest.raises(EvaluationError):
            prim("probe", CList(), 1)


class TestMember:
    def test_member_of_a_set_is_hashed_and_means_eq(self):
        rows = CSet(range(200))
        assert prim("member", 150, rows) and prim("member", 150.0, rows)
        assert not prim("member", 200, rows) and not prim("member", "150", rows)
        assert rows._lookup is not None

    def test_nan_is_a_member_of_nothing(self):
        nan = float("nan")
        for collection in (CSet([nan, 1.0]), CBag([nan]), CList([nan])):
            assert not prim("member", nan, collection)
        assert prim("member", 1.0, CSet([nan, 1.0]))


class TestRegistry:
    def test_unknown_primitive(self):
        with pytest.raises(EvaluationError):
            lookup_primitive("no_such_primitive")

    def test_primitive_names_is_sorted(self):
        names = primitive_names()
        assert names == sorted(names)
        assert "count" in names

    def test_fail_primitive_raises(self):
        with pytest.raises(EvaluationError):
            prim("fail", "boom")

    def test_registration_extends_the_table(self):
        @register_primitive("test_only_triple", arity=1)
        def _triple(x):
            return x * 3

        assert prim("test_only_triple", 4) == 12
