"""SQL text is untrusted input: its one answer is a value or a typed error.

A relational driver ships ``{"query": <text>}`` to its database verbatim,
and the text can come from a CPL query, and so from a client.  Seeded from
the SQL already in the repository (every ``select`` literal under
``tests/relational`` and ``src/``), these properties feed the parser and a
:class:`RelationalDriver` the seeds, their truncations, character and token
mutations, and splices of two seeds.  ``parse_sql`` returns a statement or
raises a :class:`ReproError` subclass; the driver returns a set of records
or raises one — never a bare ``ValueError``, ``TypeError``, ``KeyError`` or
``IndexError``.

Cost: the two properties run 500 examples each in about 2 s on a 2-core
box.  A malformed numeral such as ``7...`` (a bare ``ValueError`` from
``float`` before the lexer had one numeral grammar) fails them within the
first few hundred examples.
"""

import ast
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from text_mutators import mutations

from repro.bio.gdb import build_gdb
from repro.core.errors import ReproError
from repro.core.values import CSet
from repro.kleisli.drivers import RelationalDriver
from repro.relational.sql.ast import SelectStatement
from repro.relational.sql.parser import parse_sql

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _sql_literals(*directories):
    """Every string constant of the form ``select ... from ...`` in the
    Python files under ``directories`` (adjacent literals count as one)."""
    found = set()
    for directory in directories:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    words = node.value.lower().split()
                    if words[:1] == ["select"] and "from" in words:
                        found.add(node.value)
    return sorted(found)


SEEDS = _sql_literals("tests/relational", "src")

#: What a character edit writes: the characters the lexer turns on (quotes,
#: operators, the numeral's ``.``, ``-`` and ``e``), whitespace and
#: characters it refuses.
CHARACTERS = list("'\".,()*=<>!-+_ eE079aZ\n\t%; \u0663")
#: Each kind of lexeme, where it stands in a text, and what may replace it:
#: numerals well and badly formed, quoted strings, keywords and names, and
#: symbols.
LEXEMES = {
    "number": (re.compile(r"(?<![\w.])-?[0-9][\w.]*"),
               st.from_regex(r"-?[0-9]{1,3}(\.[0-9]{0,2}){0,3}([eE][+-]?[0-9]{0,3})?",
                             fullmatch=True)),
    "string": (re.compile(r"'(?:[^']|'')*'?"),
               st.text(alphabet="'%_ aD2", max_size=6).map("'{}'".format)),
    "word": (re.compile(r"[A-Za-z_][\w.-]*"),
             st.sampled_from(["select", "distinct", "from", "where", "and", "or",
                              "order", "by", "asc", "desc", "limit", "in", "like",
                              "as", "not", "null", "is", "locus", "locus_id",
                              "locus.locus_id", "t0.c0", "nosuch", ""])),
    "symbol": (re.compile(r"[^\w\s']+"),
               st.sampled_from(["*", ",", "(", ")", "=", "<>", "!=", "<", "<=",
                                ">", ">=", ".", "", "((", "-", "!"])),
}


texts = st.one_of(*mutations(st.sampled_from(SEEDS), CHARACTERS, LEXEMES))

DRIVER = RelationalDriver("GDB", build_gdb(locus_count=30))


def _parse(text):
    try:
        return isinstance(parse_sql(text), SelectStatement)
    except ReproError:
        return "refused"


def _query(text):
    try:
        return isinstance(DRIVER.execute({"query": text}), CSet)
    except ReproError:
        return "refused"


def test_the_seeds_are_the_repositorys_sql():
    assert len(SEEDS) >= 20
    assert any("locus_cyto_location" in seed for seed in SEEDS)
    assert all(_parse(seed) for seed in SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_seed_answers_or_refuses_typed(seed):
    assert _query(seed)


@settings(max_examples=500, deadline=None)
@given(text=texts)
def test_the_parser_answers_a_statement_or_a_typed_error(text):
    assert _parse(text)


@settings(max_examples=500, deadline=None)
@given(text=texts)
def test_a_query_request_answers_a_set_or_a_typed_error(text):
    assert _query(text)
