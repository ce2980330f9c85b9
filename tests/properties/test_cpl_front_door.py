"""CPL text is untrusted input: its one answer is a value or a typed error.

A client sends CPL text to ``Session.query``, locally or over the wire.
Seeded from the CPL already in the repository (every string literal under
``tests/cpl`` and ``examples/`` that reads as a comprehension, a collection
literal or a definition), these properties run the seeds, their
truncations, character and token mutations, and splices of two seeds
against a session with a small publication set bound as ``DB``:

* locally, ``Session.query`` returns a value or raises a
  :class:`ReproError` subclass — never a bare ``ValueError``,
  ``TypeError``, ``KeyError``, ``IndexError`` or ``RecursionError``;
* a fixed sample of 200 texts sent through one live :class:`KleisliServer`
  gets no ``InternalError`` reply, and afterwards no cursor is open, every
  admission slot is free and no evaluation scope is live.

Cost: the local property runs 500 examples in about 0.8 s and the served
sample in about 0.1 s on a 2-core box.
"""

import ast
import pathlib
import random
import re
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from text_mutators import edit_characters, mutations, splice

from repro.bio.publications import build_publications
from repro.core.errors import ReproError
from repro.core.nrc.eval import EvalScope
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.session import Session
from repro.server import KleisliClient, KleisliServer
from repro.server.client import RemoteQueryError

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _cpl_literals(*directories):
    """Every string constant in the Python files under ``directories`` that
    holds a generator, a collection literal or a definition."""
    found = set()
    for directory in directories:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    text = node.value.strip()
                    if "<-" in text or text.startswith(("{", "[|", "define",
                                                        "sum(")):
                        found.add(node.value)
    return sorted(found)


SEEDS = _cpl_literals("tests/cpl", "examples")

#: What a character edit writes: CPL's brackets, pattern and generator
#: marks, operators, quotes, digits, whitespace and characters it refuses.
CHARACTERS = list('{}[]()|\\<-=>,.:;"\'+*/!_ aZ09\n\t٣#@')
#: Each kind of lexeme, where it stands in a text, and what may replace it.
LEXEMES = {
    "number": (re.compile(r"(?<![\w.])-?[0-9][\w.]*"),
               st.sampled_from(["0", "-1", "1.5", "1e309", "99999999999999999999",
                                "1.", "0x1", ""])),
    "string": (re.compile(r'"(?:[^"\\]|\\.)*"?'),
               st.sampled_from(['""', '"x"', '"\\"', '"\\n"', '"'])),
    "word": (re.compile(r"[A-Za-z_][\w-]*"),
             st.sampled_from(["define", "sum", "DB", "p", "title", "year",
                              "true", "nosuch", "GDB-Tab", "GenBank", "in",
                              "and", "or", "not", "if", "then", "else", ""])),
    "symbol": (re.compile(r"[^\w\s\"]+"),
               st.sampled_from(["{", "}", "[|", "|]", "{|", "|}", "<-", "\\",
                                "|", "==", "=", ",", ".", "...", "<>", "(",
                                ")", "[", "]", ""])),
}


seeds = st.sampled_from(SEEDS)
texts = st.one_of(seeds, *mutations(seeds, CHARACTERS, LEXEMES))

PUBLICATIONS = build_publications(5)


def _bound(session):
    session.bind("DB", PUBLICATIONS)


SESSION = Session()
_bound(SESSION)


def _query(text):
    try:
        SESSION.query(text)
        return "value"
    except ReproError:
        return "refused"


def test_the_seeds_are_the_repositorys_cpl():
    assert len(SEEDS) >= 50
    assert any("GDB-Tab" in seed for seed in SEEDS)
    assert sum(_query(seed) == "value" for seed in SEEDS) >= 20


@settings(max_examples=500, deadline=None)
@given(text=texts)
def test_a_query_answers_a_value_or_a_typed_error(text):
    assert _query(text)


def _sample(count, seed=40):
    """``count`` texts drawn as ``texts`` draws them, from a fixed seed."""
    rng = random.Random(seed)
    pick = lambda: rng.choice(SEEDS)    # noqa: E731
    makers = [
        pick,
        lambda: (lambda text: text[:int(len(text) * rng.random())])(pick()),
        lambda: edit_characters(pick(), [
            (rng.random(), rng.choice(["insert", "replace", "delete"]),
             rng.choice(CHARACTERS)) for _ in range(rng.randint(1, 3))]),
        lambda: splice(pick(), pick(), rng.random(), rng.random()),
    ]
    return [rng.choice(makers)() for _ in range(count)]


def test_a_served_query_answers_a_value_or_a_typed_error():
    sessions = []

    def setup(session):
        _bound(session)
        sessions.append(session)

    scopes = EvalScope.live_count()
    server = KleisliServer(KleisliEngine(), session_setup=setup,
                           max_concurrent_queries=2).start()
    try:
        with KleisliClient(server.address) as client:
            answers = {"value": 0, "refused": 0}
            for text in _sample(200):
                try:
                    client.query(text)
                    answers["value"] += 1
                except RemoteQueryError as error:
                    assert error.error_type != "InternalError", (text, error)
                    answers["refused"] += 1
            assert answers["value"] >= 20 and answers["refused"] >= 20
            deadline = time.monotonic() + 5
            while server._inflight and time.monotonic() < deadline:
                time.sleep(0.005)   # a slot goes back once its reply is sent
            assert server._inflight == 0
            with server._lock:
                connections = list(server._states)
            assert [len(state.cursors) for state in connections] == [0]
            assert [state.session for state in connections] == sessions
            assert EvalScope.live_count() == scopes
    finally:
        server.stop()
