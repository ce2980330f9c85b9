"""Tests for the ASN.1 substrate: schemas, value text, paths, pruning parse, Entrez."""

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.asn1 import (
    EntrezServer,
    parse_asn1_schema,
    parse_path,
    parse_value,
    parse_value_with_path,
    print_value,
)
from repro.core import types as T
from repro.core.errors import (ASN1Error, ASN1ParseError, PathApplicationError,
                               PathSyntaxError, RemoteQueryError)
from repro.core.values import CList, CSet, Record, Variant
from repro.asn1.values import conforms, validate_value
from repro.kleisli.drivers import EntrezDriver
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.session import Session
from repro.server import KleisliClient, KleisliServer

SPEC = """
Seq-entry ::= SEQUENCE {
    accession VisibleString,
    seq SEQUENCE {
        id SET OF CHOICE { giim INTEGER, genbank VisibleString },
        length INTEGER
    },
    keywd SET OF VisibleString
}
"""


@pytest.fixture(scope="module")
def seq_entry_type():
    return parse_asn1_schema(SPEC).cpl_type("Seq-entry")


@pytest.fixture()
def sample_entry():
    return Record({
        "accession": "M81409",
        "seq": Record({"id": CSet([Variant("giim", 5001), Variant("genbank", "M81409")]),
                       "length": 1234}),
        "keywd": CSet(["perforin", "chromosome 22"]),
    })


class TestTypeSpec:
    def test_sequence_of_and_set_of(self):
        schema = parse_asn1_schema("T ::= SEQUENCE OF INTEGER\nS ::= SET OF VisibleString")
        assert schema.cpl_type("T") == T.ListType(T.INT)
        assert schema.cpl_type("S") == T.SetType(T.STRING)

    def test_choice_becomes_variant(self, seq_entry_type):
        id_type = seq_entry_type.field("seq").field("id")
        assert isinstance(id_type.element, T.VariantType)
        assert id_type.element.case("giim") == T.INT

    def test_named_type_references_resolve(self):
        schema = parse_asn1_schema("""
            Author ::= SEQUENCE { name VisibleString }
            Publication ::= SEQUENCE { authors SEQUENCE OF Author }
        """)
        ty = schema.cpl_type("Publication")
        assert ty.field("authors") == T.ListType(T.RecordType({"name": T.STRING}))

    def test_undefined_reference_raises(self):
        schema = parse_asn1_schema("T ::= SEQUENCE { x Undefined }")
        with pytest.raises(ASN1ParseError):
            schema.cpl_type("T")

    def test_recursive_type_rejected(self):
        schema = parse_asn1_schema("Node ::= SEQUENCE { child Node }")
        with pytest.raises(ASN1ParseError):
            schema.cpl_type("Node")

    def test_unknown_type_name(self, seq_entry_type):
        schema = parse_asn1_schema(SPEC)
        with pytest.raises(ASN1ParseError):
            schema.cpl_type("NoSuchType")


class TestValueTextRoundtrip:
    def test_roundtrip(self, seq_entry_type, sample_entry):
        text = print_value(sample_entry)
        assert parse_value(text, seq_entry_type) == sample_entry

    def test_string_escaping(self):
        ty = T.RecordType({"note": T.STRING})
        value = Record({"note": 'says "hi"'})
        assert parse_value(print_value(value), ty) == value

    def test_validation(self, seq_entry_type, sample_entry):
        validate_value(sample_entry, seq_entry_type)
        assert conforms(sample_entry, seq_entry_type)
        assert not conforms(Record({"accession": 42}), seq_entry_type)

    def test_malformed_text_raises(self, seq_entry_type):
        with pytest.raises(ASN1ParseError):
            parse_value("{ accession }", seq_entry_type)
        with pytest.raises(ASN1ParseError):
            parse_value('{ accession "x" } trailing', seq_entry_type)


class TestNumerals:
    """INTEGER and REAL are read exactly: an ``int`` and a ``float``, any
    other text a typed error with its position, never a bare ``ValueError``."""

    INTEGER = T.RecordType({"n": T.INT})
    REAL = T.RecordType({"n": T.FLOAT})

    @pytest.mark.parametrize("literal", ["1.2.3", "--5", "1e", "+", "12-3", "1.5",
                                         "PLUS-INFINITY", "x", "\u00b2"])
    def test_malformed_integers_are_typed_errors(self, literal):
        with pytest.raises(ASN1ParseError, match="position 4"):
            parse_value("{ n %s }" % literal, self.INTEGER)

    @pytest.mark.parametrize("literal", ["1.2.3", "--5", "1e", "+", "12-3", "INFINITY",
                                         "\u00b2"])
    def test_malformed_reals_are_typed_errors(self, literal):
        with pytest.raises(ASN1ParseError, match="position 4"):
            parse_value("{ n %s }" % literal, self.REAL)

    def test_each_type_reads_its_own_kind(self):
        assert type(parse_value("{ n -12 }", self.INTEGER).project("n")) is int
        for literal, expected in (("5", 5.0), ("-1.5", -1.5), ("2e3", 2000.0)):
            value = parse_value("{ n %s }" % literal, self.REAL).project("n")
            assert type(value) is float and value == expected

    def test_non_finite_reals_print_as_asn1_names(self):
        assert print_value(float("inf")) == "PLUS-INFINITY"
        assert print_value(float("-inf")) == "MINUS-INFINITY"
        assert print_value(float("nan")) == "NOT-A-NUMBER"
        value = parse_value("{ n MINUS-INFINITY }", self.REAL).project("n")
        assert value == float("-inf")

    @given(st.integers() | st.floats(allow_nan=True, allow_infinity=True))
    def test_print_parse_round_trip(self, number):
        ty = self.REAL if isinstance(number, float) else self.INTEGER
        for field_type in (ty, T.RecordType({})):      # typed, and an untyped hole
            value = parse_value(print_value(Record({"n": number})), field_type).project("n")
            assert type(value) is type(number)
            assert math.isnan(value) if math.isnan(number) else value == number

    @staticmethod
    def _corrupt_server(seq_entry_type, sample_entry, old, new):
        server = EntrezServer("NCBI")
        division = server.create_division("na", seq_entry_type)
        uid = division.add_entry(sample_entry, {"accession": ["M81409"]})
        division.entries[uid].text = division.entries[uid].text.replace(old, new)
        return server

    #: A malformed field off no path, and a wanted item followed by neither
    #: ``,`` nor ``}``: each request's typed error.
    MALFORMED = [
        ("length 1234", "length 12-34", "", "INTEGER '12-34' at position"),
        ("giim 5001", "giim 5001 x", ', path = "Seq-entry.seq.id..giim"',
         "expected ',' or '}' after 'giim'"),
    ]

    @pytest.mark.parametrize("old, new, path, message", MALFORMED)
    def test_a_malformed_entry_reaches_a_session_as_a_typed_error(
            self, seq_entry_type, sample_entry, old, new, path, message):
        session = Session()
        session.register_driver(EntrezDriver(
            "GenBank", self._corrupt_server(seq_entry_type, sample_entry, old, new)))
        with pytest.raises(ASN1ParseError, match=re.escape(message)):
            session.query('GenBank([db = "na", select = "accession M81409"%s])' % path)

    @pytest.mark.parametrize("old, new, path, message", MALFORMED)
    def test_a_malformed_entry_reaches_a_client_as_a_typed_error(
            self, seq_entry_type, sample_entry, old, new, path, message):
        server = self._corrupt_server(seq_entry_type, sample_entry, old, new)
        engine = KleisliEngine()
        engine.register_driver(EntrezDriver("GenBank", server))
        with KleisliServer(engine) as service, KleisliClient(service.address) as client:
            with pytest.raises(RemoteQueryError, match=re.escape(message)) as info:
                client.query('GenBank([db = "na", select = "accession M81409"%s])' % path)
        assert info.value.error_type == "ASN1ParseError"


class TestPathLanguage:
    def test_parse_paper_path(self):
        path = parse_path("Seq-entry.seq.id..giim")
        assert path.root == "Seq-entry"
        assert repr(path) == "Seq-entry.seq.id..giim"

    def test_apply_projections_and_variant_extraction(self, sample_entry):
        path = parse_path("Seq-entry.seq.id..giim")
        assert path.apply(sample_entry) == CSet([5001])

    def test_projection_maps_over_collections(self, sample_entry):
        entries = CSet([sample_entry])
        assert parse_path("E.accession").apply(entries) == CSet(["M81409"])

    def test_variant_step_on_mismatching_single_variant_raises(self):
        path = parse_path("E..giim")
        with pytest.raises(PathApplicationError):
            path.apply(Variant("genbank", "M81409"))

    def test_missing_field_raises(self, sample_entry):
        with pytest.raises(PathApplicationError):
            parse_path("E.nosuch").apply(sample_entry)

    def test_paths_are_immutable_and_parsed_once(self):
        path = parse_path("Seq-entry.seq.id..giim")
        assert parse_path("Seq-entry.seq.id..giim") is path
        with pytest.raises(AttributeError):
            path.root = "Other"
        with pytest.raises(AttributeError):
            path.steps[0].label = "other"
        assert not hasattr(path, "__dict__")

    def test_syntax_errors(self):
        with pytest.raises(PathSyntaxError):
            parse_path("")
        with pytest.raises(PathSyntaxError):
            parse_path("E...x")
        with pytest.raises(PathSyntaxError):
            parse_path("E.seq.")


class TestPruningParse:
    def test_pruned_parse_equals_parse_then_apply(self, seq_entry_type, sample_entry):
        text = print_value(sample_entry)
        for path_text in ("Seq-entry.accession", "Seq-entry.seq.length",
                          "Seq-entry.seq.id..giim", "Seq-entry.keywd"):
            path = parse_path(path_text)
            assert parse_value_with_path(text, seq_entry_type, path) == \
                path.apply(parse_value(text, seq_entry_type))

    def test_pruning_skips_fields_not_on_path(self, seq_entry_type, sample_entry):
        text = print_value(sample_entry)
        value = parse_value_with_path(text, seq_entry_type, parse_path("Seq-entry.accession"))
        assert value == "M81409"

    def test_a_declared_entry_mints_no_type_variable(self, seq_entry_type, sample_entry,
                                                     monkeypatch):
        """Only an undeclared label needs a placeholder type."""
        text = print_value(sample_entry)
        minted = []
        fresh = T.fresh_type_var
        monkeypatch.setattr(T, "fresh_type_var", lambda *a: minted.append(a) or fresh(*a))
        assert parse_value(text, seq_entry_type) == sample_entry
        for path_text in ("Seq-entry.seq.id..giim", "Seq-entry.keywd"):
            path = parse_path(path_text)
            assert parse_value_with_path(text, seq_entry_type, path) == path.apply(sample_entry)
        assert minted == []
        # An undeclared field still parses, under a placeholder.
        assert parse_value("{ n 5, m 6 }", T.RecordType({"n": T.INT})) == \
            Record({"n": 5, "m": 6})
        assert len(minted) == 1

    def test_path_to_missing_field_raises(self, seq_entry_type, sample_entry):
        text = print_value(sample_entry)
        with pytest.raises(PathApplicationError):
            parse_value_with_path(text, seq_entry_type, parse_path("Seq-entry.nosuch"))

    def test_the_pruning_contract(self, seq_entry_type):
        """Skipped text is checked for braces and strings only; a name is
        wanted at the value's top level only; a wanted item must be followed
        by ``,`` or ``}``; a repeated label keeps its last value and a
        repeated tag every payload, as the whole parse does."""
        length, ids = parse_path("Seq-entry.seq.length"), parse_path("Seq-entry.seq.id..giim")
        skipped = ('{ accession 7, seq { id { giim 1, genbank { a 0, giim 2 }, giim 3 }, '
                   'length 9, x { y 0, length 8 } }, x {"}"} }')
        assert parse_value_with_path(skipped, seq_entry_type, length) == 9
        assert parse_value_with_path(skipped, seq_entry_type, ids) == CSet([1, 3])
        with pytest.raises(ASN1ParseError):
            parse_value(skipped, seq_entry_type)
        for broken in ('{ seq { length 9 }, x "}', '{ seq { length 9 }, x { }',
                       '{ seq { length 9 x } }', '{ seq { length 9 }; x 1 }'):
            with pytest.raises(ASN1ParseError):
                parse_value_with_path(broken, seq_entry_type, length)
        repeated = "{ seq { length 1 }, seq { length 2, length 3 } }"
        assert parse_value(repeated, seq_entry_type).project("seq").project("length") == 3
        assert parse_value_with_path(repeated, seq_entry_type, length) == 3

    @pytest.mark.parametrize("element, text, tag", [
        (T.BOOL, "{ TRUE, FALSE }", "TRUE"),
        (T.UNIT, "{ NULL }", "NULL"),
        (T.FLOAT, "{ PLUS-INFINITY, 1.5 }", "PLUS-INFINITY"),
    ], ids=["BOOLEAN", "NULL", "REAL"])
    def test_a_tag_step_at_a_collection_of_bare_names_reads_nothing(self, element, text, tag):
        """An element written as a bare name is no CHOICE value, so a
        ``..tag`` step naming it reads the empty collection, as
        ``path.apply`` of the whole parse does."""
        ty, path = T.SetType(element), parse_path(f"X..{tag}")
        assert parse_value_with_path(text, ty, path) == path.apply(parse_value(text, ty)) == CSet([])


class TestEntrez:
    @pytest.fixture()
    def server(self, seq_entry_type, sample_entry):
        server = EntrezServer("NCBI")
        division = server.create_division("na", seq_entry_type)
        uid = division.add_entry(sample_entry, {"accession": ["M81409"],
                                                "keyword": ["perforin"]})
        other = Record({
            "accession": "X999",
            "seq": Record({"id": CSet([Variant("giim", 7002)]), "length": 50}),
            "keywd": CSet(["perforin"]),
        })
        other_uid = division.add_entry(other, {"accession": ["X999"], "keyword": ["perforin"]})
        division.add_link(uid, other_uid, "na", 42.0, organism="Mus musculus")
        return server

    def test_index_selection(self, server):
        assert len(server.query("na", "accession M81409")) == 1
        assert len(server.query("na", "keyword perforin")) == 2

    def test_boolean_combination(self, server):
        assert len(server.query_uids("na", "keyword perforin AND accession X999")) == 1
        assert len(server.query_uids("na", "accession M81409 OR accession X999")) == 2

    def test_unknown_index_raises(self, server):
        with pytest.raises(ASN1Error):
            server.query("na", "organism human")

    def test_path_applied_during_retrieval(self, server):
        values = server.query("na", "accession M81409", path="Seq-entry.seq.id..giim")
        assert values == [CSet([5001])]

    def test_fetch_and_links(self, server):
        uid = server.query_uids("na", "accession M81409")[0]
        entry = server.fetch("na", uid)
        assert entry.project("accession") == "M81409"
        links = server.links("na", uid)
        assert len(links) == 1
        assert links[0]["organism"] == "Mus musculus"

    def test_unknown_division_raises(self, server):
        with pytest.raises(ASN1Error):
            server.query("protein", "accession X")

    def test_request_log_records_traffic(self, server):
        for _ in range(300):
            server.query_uids("na", "keyword perforin")
        server.query("na", "accession M81409")
        assert server.request_log[-1]["select"] == "accession M81409"
        assert len(server.request_log) == server.request_log.maxlen == 256
