"""Property-based tests (hypothesis) on the core data structures and invariants.

Three families of invariants:

* value-model laws — set/bag/list algebra, conversion round-trips;
* language invariants — the optimizer never changes the meaning of a query,
  and desugaring + evaluation respects comprehension semantics;
* format round-trips — FASTA / tabular / ASN.1 text / .ace survive a
  write-then-read cycle.
"""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.ace import dump_ace, parse_ace
from repro.ace.model import AceObject
from repro.asn1 import parse_value, print_value
from repro.core import types as T
from repro.core.cpl.desugar import desugar_expression
from repro.core.cpl.parser import parse_expression
from repro.core.nrc import builder as B
from repro.core.nrc.eval import evaluate
from repro.core.nrc.rules_monadic import monadic_rule_set
from repro.core.records import Record
from repro.core.values import CBag, CList, CSet, from_python, infer_type, to_python
from repro.kleisli.engine import KleisliEngine
from repro.formats.fasta import FastaRecord, read_fasta, write_fasta
from repro.formats.tabular import read_tabular, write_tabular

# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------

scalars = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.booleans(),
    st.text(alphabet=string.ascii_letters + string.digits + " _-", max_size=12),
)

field_names = st.sampled_from(["title", "year", "locus", "keywd", "organism", "score"])


def python_data(max_depth=3):
    return st.recursive(
        scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(field_names, children, max_size=4),
        ),
        max_leaves=12,
    )


publication_rows = st.lists(
    st.fixed_dictionaries({
        "title": st.text(alphabet=string.ascii_letters + " ", min_size=1, max_size=15),
        "year": st.integers(min_value=1980, max_value=1995),
        "keywd": st.lists(st.sampled_from(["Exons", "Mapping", "Sequence", "Genes"]),
                          min_size=0, max_size=3).map(set),
    }),
    min_size=0, max_size=8,
)

int_sets = st.lists(st.integers(min_value=-50, max_value=50), max_size=12)


# --------------------------------------------------------------------------
# Value-model laws
# --------------------------------------------------------------------------

class TestCollectionLaws:
    @given(int_sets)
    def test_set_idempotent_union(self, items):
        value = CSet(items)
        assert value.union(value) == value

    @given(int_sets, int_sets)
    def test_set_union_is_commutative(self, left, right):
        assert CSet(left).union(CSet(right)) == CSet(right).union(CSet(left))

    @given(int_sets, int_sets, int_sets)
    def test_union_is_associative_for_each_kind(self, a, b, c):
        for cls in (CSet, CBag, CList):
            x, y, z = cls(a), cls(b), cls(c)
            assert x.union(y).union(z) == x.union(y.union(z))

    @given(int_sets)
    def test_bag_preserves_cardinality_under_union(self, items):
        bag = CBag(items)
        assert len(bag.union(bag)) == 2 * len(items)

    @given(int_sets)
    def test_equal_values_have_equal_hashes(self, items):
        assert hash(CSet(items)) == hash(CSet(list(reversed(items))))
        assert hash(CBag(items)) == hash(CBag(list(reversed(items))))

    @given(python_data())
    def test_from_python_to_python_roundtrip(self, data):
        lifted = from_python(data)
        assert from_python(to_python(lifted)) == lifted

    @given(python_data())
    def test_infer_type_always_produces_a_type(self, data):
        assert isinstance(infer_type(from_python(data)), T.Type)

    @given(st.dictionaries(field_names, scalars, min_size=1, max_size=5))
    def test_record_projection_agrees_with_dict(self, fields):
        record = Record(fields)
        for label, value in fields.items():
            assert record.project(label) == value
        assert record.to_dict() == fields


class TestRemyProjectionProperty:
    @given(st.lists(st.fixed_dictionaries({"a": scalars}, optional={"b": scalars}),
                    max_size=30))
    def test_engine_head_equals_plain_projection(self, rows):
        """The chunk lowering's record head (slots resolved once per source
        directory) against per-record projection, over mixed-shape rows."""
        records = [Record(row) for row in rows]
        head = B.record(a=B.project(B.var("r"), "a"))
        expr = B.ext("r", B.singleton(head, "list"), B.var("T"), kind="list")
        projected = list(KleisliEngine().stream(expr, {"T": CList(records)},
                                                optimize=False))
        assert projected == [Record({"a": r.project("a")}) for r in records]


# --------------------------------------------------------------------------
# Language invariants
# --------------------------------------------------------------------------

QUERIES = [
    r"{p.title | \p <- DB}",
    r"{p | \p <- DB, p.year > 1988}",
    r"{[t = p.title, y = p.year] | \p <- DB, p.year >= 1985, p.year <= 1993}",
    r"{[title = t, keyword = k] | [title = \t, keywd = \kk, ...] <- DB, \k <- kk}",
    r"{[keyword = k, titles = {x.title | \x <- DB, k <- x.keywd}] | \y <- DB, \k <- y.keywd}",
    r"{[t = p.title, n = count(p.keywd)] | \p <- DB}",
]


class TestOptimizationPreservesSemantics:
    @settings(max_examples=30, deadline=None)
    @given(publication_rows, st.sampled_from(QUERIES))
    def test_monadic_normalisation_preserves_value(self, rows, query):
        db = from_python([dict(row, keywd=set(row["keywd"])) for row in rows], list_as="set")
        nrc = desugar_expression(parse_expression(query))
        optimized = monadic_rule_set().apply(nrc)
        assert evaluate(nrc, {"DB": db}) == evaluate(optimized, {"DB": db})

    @settings(max_examples=20, deadline=None)
    @given(publication_rows)
    def test_flatten_then_group_is_consistent(self, rows):
        """Grouping the flattened keyword relation recovers each publication's keywords."""
        db = from_python([dict(row, keywd=set(row["keywd"])) for row in rows], list_as="set")
        flat = evaluate(desugar_expression(parse_expression(
            r"{[title = t, keyword = k] | [title = \t, keywd = \kk, ...] <- DB, \k <- kk}")),
            {"DB": db})
        for row in db:
            keywords = {pair.project("keyword") for pair in flat
                        if pair.project("title") == row.project("title")}
            # Titles may repeat across generated rows; grouping can only widen the set.
            assert set(row.project("keywd")) <= keywords

    @settings(max_examples=25, deadline=None)
    @given(int_sets, int_sets)
    def test_horizontal_fusion_on_arbitrary_sets(self, left, right):
        from repro.core.nrc import builder as B

        expr = B.union(
            B.ext("x", B.singleton(B.prim("add", B.var("x"), B.const(1))), B.var("S")),
            B.ext("x", B.singleton(B.prim("mul", B.var("x"), B.const(2))), B.var("S")))
        optimized = monadic_rule_set().apply(expr)
        data = {"S": CSet(left + right)}
        assert evaluate(expr, data) == evaluate(optimized, data)


# --------------------------------------------------------------------------
# Format round-trips
# --------------------------------------------------------------------------

dna = st.text(alphabet="ACGT", min_size=1, max_size=120)
identifiers = st.text(alphabet=string.ascii_letters + string.digits, min_size=1, max_size=10)


class TestFormatRoundtrips:
    @given(st.lists(st.tuples(identifiers, dna), min_size=1, max_size=5))
    def test_fasta_roundtrip(self, entries):
        records = [FastaRecord(identifier, "desc", sequence)
                   for identifier, sequence in entries]
        assert read_fasta(write_fasta(records)) == records

    @given(st.lists(st.fixed_dictionaries({"locus": identifiers, "band": identifiers}),
                    min_size=1, max_size=6))
    def test_tabular_roundtrip(self, rows):
        records = [Record(row) for row in rows]
        assert read_tabular(write_tabular(records)) == CSet(records)

    @given(st.fixed_dictionaries({
        "accession": identifiers,
        "length": st.integers(min_value=0, max_value=10**6),
        "organism": st.text(alphabet=string.ascii_letters + " ", max_size=20),
        "keywd": st.lists(identifiers, max_size=4).map(set),
    }))
    def test_asn1_value_text_roundtrip(self, data):
        value = from_python(data)
        ty = infer_type(value)
        assert parse_value(print_value(value), ty) == value

    @given(st.lists(st.tuples(identifiers, st.sampled_from(["Remark", "Length", "Library"]),
                              st.one_of(identifiers, st.integers(0, 1000))),
                    min_size=1, max_size=8))
    def test_ace_roundtrip(self, triples):
        objects = {}
        for name, tag, value in triples:
            obj = objects.setdefault(name, AceObject("Clone", name))
            obj.add(tag, value)
        text = dump_ace(list(objects.values()))
        reparsed = {obj.name: obj for obj in parse_ace(text)}
        assert set(reparsed) == set(objects)
        for name, obj in objects.items():
            for tag in obj.tag_names():
                assert reparsed[name].values(tag) == obj.values(tag)
