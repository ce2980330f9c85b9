"""ASN.1 text is untrusted input: the parser's one answer is a value or a typed error.

The cursor under the type-directed descent scans with ``re`` and
``str.find``.  These properties hold it to the cursor it replaced, which
walked the text one character at a time (kept here as the reference, under
the same descent):

* on printed entries, their truncations and single-character mutations,
  both read the same value, or both refuse — the new one only with
  ``ASN1ParseError`` (or, pruning, ``PathApplicationError`` for a path the
  text does not have), never another exception.

The reference shares the module's pruning scan, so pruning has an oracle of
its own: the whole parse.  Wherever ``parse_value`` reads a value,
``parse_value_with_path`` reads what ``path.apply`` makes of it (or refuses
as it does); elsewhere it reads a value or refuses typed.  Malformed texts of
~10^5 characters fail typed in linear time.
"""

import pathlib
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asn1 import parse_asn1_schema, parse_path, parse_value, parse_value_with_path
from repro.asn1 import parser as P
from repro.asn1.printer import print_value
from repro.core.errors import ASN1ParseError, PathApplicationError
from repro.core.values import CSet, Record, Variant

SPEC = """
Seq-entry ::= SEQUENCE {
    accession VisibleString,
    seq SEQUENCE {
        data VisibleString,
        id SET OF CHOICE { giim INTEGER, genbank VisibleString, local NULL },
        length INTEGER,
        score REAL
    },
    keywd SET OF VisibleString,
    circular BOOLEAN
}
"""
ENTRY = parse_asn1_schema(SPEC).cpl_type("Seq-entry")
PATHS = [parse_path(text) for text in (
    "Seq-entry.seq.id..giim", "Seq-entry.seq.id..genbank", "Seq-entry.keywd",
    "Seq-entry.seq.length", "Seq-entry.accession", "Seq-entry.seq.id..local")]
#: Paths the entry type does not have, or has only in part: pruning must
#: refuse (or read an empty set) exactly where ``path.apply`` does.
ILL_TYPED = [parse_path(text) for text in (
    "Seq-entry.seq.length.x", "Seq-entry.seq..giim", "Seq-entry.keywd..x",
    "Seq-entry.seq.id.giim", "Seq-entry.seq.id..local.x", "Seq-entry.seq.id..giim.x")]
TYPED = (ASN1ParseError, PathApplicationError)


class CharCursor:
    """The reference: the same primitives, one character at a time."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def at_end(self):
        return self.pos >= len(self.text)

    def skip_whitespace(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_whitespace()
        return "" if self.at_end() else self.text[self.pos]

    def expect(self, char):
        if not self.accept(char):
            raise ASN1ParseError(f"expected {char!r} at position {self.pos}")

    def accept(self, char):
        self.skip_whitespace()
        if not self.at_end() and self.text[self.pos] == char:
            self.pos += 1
            return True
        return False

    def read_name(self):
        self.skip_whitespace()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] in "_-"):
            self.pos += 1
        if start == self.pos:
            raise ASN1ParseError(f"expected a name at position {start}")
        return self.text[start:self.pos]

    def read_string(self):
        self.expect('"')
        parts = []
        while True:
            if self.pos >= len(self.text):
                raise ASN1ParseError("unterminated string in ASN.1 value")
            char = self.text[self.pos]
            if char == '"':
                if self.text[self.pos + 1:self.pos + 2] == '"':
                    parts.append('"')
                    self.pos += 2
                    continue
                self.pos += 1
                return "".join(parts)
            parts.append(char)
            self.pos += 1

    def read_number(self, real):
        self.skip_whitespace()
        start = self.pos
        if not self.at_end() and self.text[self.pos].isalpha():
            name = self.read_name()
            if real is not False and name in P._SPECIAL_REALS:
                return float(P._SPECIAL_REALS[name])
            raise ASN1ParseError(f"expected a number at position {start}")
        if not self.at_end() and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and (self.text[self.pos].isdigit()
                                             or self.text[self.pos] in ".eE+-"):
            self.pos += 1
        literal = self.text[start:self.pos]
        if real is None:
            real = any(ch in literal for ch in ".eE")
        try:
            return float(literal) if real else int(literal)
        except ValueError:
            raise ASN1ParseError(f"malformed number at position {start}") from None


def _reference(text, path=None):
    cursor = CharCursor(text)
    value = P._parse(cursor, ENTRY, None if path is None else tuple(path.steps))
    cursor.skip_whitespace()
    if not cursor.at_end():
        raise ASN1ParseError("trailing text")
    return value


def _outcome(parse, *args):
    try:
        return "value", parse(*args)
    except TYPED as error:
        return "error", type(error)


texts = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)
numbers = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
ids = st.lists(st.one_of(numbers.map(lambda n: Variant("giim", n)),
                         texts.map(lambda s: Variant("genbank", s)),
                         st.just(Variant("local"))), max_size=4)
entries = st.builds(
    lambda accession, data, identifiers, length, score, keywords, circular: Record({
        "accession": accession,
        "seq": Record({"data": data, "id": CSet(identifiers), "length": length,
                       "score": score}),
        "keywd": CSet(keywords), "circular": circular}),
    texts, st.text(alphabet='ACGT"{} ,', max_size=40), ids, numbers,
    st.floats(allow_nan=False, allow_infinity=True, width=32),
    st.lists(texts, max_size=3), st.booleans())
#: What a mutation writes: the characters the grammar turns on, whitespace
#: of several kinds, and digits ``isdigit`` and ``\d`` disagree about.
MUTANTS = st.sampled_from(list('{}",-+._ eE0Tx\n\t\u00a0\u2003\u00b2\u0663'))


def _agree(text):
    for path in [None] + PATHS:
        expected = _outcome(_reference, text, path)
        found = (_outcome(parse_value, text, ENTRY) if path is None
                 else _outcome(parse_value_with_path, text, ENTRY, path))
        assert found == expected, (text, path)


@settings(max_examples=150, deadline=None)
@given(entry=entries, width=st.sampled_from([30, 100]))
def test_printed_entries_read_alike_and_pruning_reads_what_the_whole_parse_does(entry, width):
    text = print_value(entry, width=width)
    assert parse_value(text, ENTRY) == entry
    for path in PATHS:
        assert parse_value_with_path(text, ENTRY, path) == path.apply(entry)
    _agree(text)


def _edited(text, edits):
    for where, how, char in edits:
        at = min(int(len(text) * where), max(len(text) - 1, 0))
        if how == "insert":
            text = text[:at] + char + text[at:]
        else:
            text = text[:at] + (char if how == "replace" else "") + text[at + 1:]
    return text


cuts = st.floats(min_value=0.0, max_value=1.0)
edit_lists = st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                                st.sampled_from(["replace", "insert", "delete"]),
                                MUTANTS), max_size=3)


@settings(max_examples=300, deadline=None)
@given(entry=entries, cut=cuts, edits=edit_lists)
def test_truncated_and_mutated_entries_read_alike_or_fail_typed(entry, cut, edits):
    text = print_value(entry, width=40)
    _agree(text[:int(len(text) * cut)])
    _agree(_edited(text, edits))


def _prunes_as_the_whole_parse_reads(text):
    try:
        whole = parse_value(text, ENTRY)
    except ASN1ParseError:
        whole = None
    for path in PATHS + ILL_TYPED:
        found = _outcome(parse_value_with_path, text, ENTRY, path)
        if whole is not None:
            assert found == _outcome(path.apply, whole), (text, path)


@settings(max_examples=300, deadline=None)
@given(entry=entries, cut=cuts, edits=edit_lists, width=st.sampled_from([30, 100]))
def test_pruning_reads_what_the_whole_parse_then_the_path_reads(entry, cut, edits, width):
    """The oracle is ``parse_value`` and ``path.apply``, which share no scan
    with pruning: a printed entry, a truncation and a mutation of it
    (~1.5 s for 300 examples on a 2-core box)."""
    text = print_value(entry, width=width)
    for candidate in (text, text[:int(len(text) * cut)], _edited(text, edits)):
        _prunes_as_the_whole_parse_reads(candidate)


N = 10 ** 5
MALFORMED = ['{ accession "' + "A" * N] + [
    prefix + run * (N // len(run))
    for run in ('"', '""', "{", ",", ", ")
    for prefix in ("", '{ accession "x", seq ', '{ seq { id { giim 1, genbank ')]


def test_malformed_texts_fail_typed_in_linear_time():
    """An unterminated string and runs of ``"``, ``""``, ``{`` and ``,``
    of ~10^5 characters: every parse refuses typed within a second, where
    a match that backtracks quadratically would take minutes."""
    for text in MALFORMED:
        for path in [None] + PATHS:
            started = time.perf_counter()
            outcome = (_outcome(parse_value, text, ENTRY) if path is None
                       else _outcome(parse_value_with_path, text, ENTRY, path))
            assert outcome[0] == "error", (text[:40], path)
            assert time.perf_counter() - started < 1.0, (text[:40], path)


def test_the_parser_stays_small():
    assert len(pathlib.Path(P.__file__).read_text().splitlines()) <= 299
