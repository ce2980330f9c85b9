"""The eight run options are declared once, in :class:`QueryOptions`.

Every entry point takes the same names by keyword — the engine's
``execute`` and ``stream``, the session's ``run``, ``query`` and ``stream``
— and checks them the same way; the wire client takes the five that cross
the wire, which are the five the server reads.  No other function in
``src/`` spells the options out as parameters.
"""

import ast
import pathlib

import pytest

from repro.core.cpl.desugar import desugar_expression
from repro.core.cpl.parser import parse_expression
from repro.core.errors import EvaluationError
from repro.core.nrc.compile import ChunkPolicy
from repro.core.values import CList, iter_collection
from repro.kleisli.engine import QueryOptions
from repro.kleisli.governance import CancellationToken
from repro.kleisli.session import Session
from repro.server import client as client_module
from repro.server.client import KleisliClient
from repro.server.service import KleisliServer
from repro.server.wire import encode_value

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

TEXT = r"[| x * 3 | \x <- T |]"

#: One valid value for each of the eight names (the token is never cancelled).
ALL_EIGHT = dict(mode="compiled", deadline=5.0, on_source_failure="fail",
                 cancellation=CancellationToken(), memory_budget=1 << 20,
                 spill=False, profile=True, chunk_policy=ChunkPolicy(max_chunk=1))

ENTRIES = {
    "execute": lambda session, **options: list(iter_collection(
        session.engine.execute(desugar_expression(parse_expression(TEXT)),
                               session.values, **options))),
    "stream": lambda session, **options: list(session.engine.stream(
        desugar_expression(parse_expression(TEXT)), session.values,
        **options)),
    "Session.run": lambda session, **options: list(iter_collection(
        session.run(TEXT, **options))),
    "Session.query": lambda session, **options: list(iter_collection(
        session.query(TEXT, **options).value)),
    "Session.stream": lambda session, **options: list(
        session.stream(TEXT, **options)),
}


def _session():
    session = Session()
    session.bind("T", [1, 2, 3])
    return session


@pytest.mark.parametrize("entry", ENTRIES)
def test_every_entry_point_takes_all_eight_names(entry):
    run = ENTRIES[entry]
    plain = run(_session())
    assert plain == [3, 6, 9]
    assert set(ALL_EIGHT) == set(QueryOptions._fields)
    assert run(_session(), **ALL_EIGHT) == plain
    assert run(_session(), **dict(ALL_EIGHT, mode="interpret")) == plain


@pytest.mark.parametrize("entry", ENTRIES)
def test_every_entry_point_checks_the_same_way(entry):
    run = ENTRIES[entry]
    with pytest.raises(ValueError, match="on_source_failure must be 'fail' "
                                         "or 'degrade', got 'bogus'"):
        run(_session(), on_source_failure="bogus")
    with pytest.raises(EvaluationError, match="unknown execution mode 'bogus'"):
        run(_session(), mode="bogus")
    with pytest.raises(ValueError):          # the policy is checked first
        run(_session(), mode="bogus", on_source_failure="bogus")
    with pytest.raises(TypeError):
        run(_session(), no_such_option=True)


def test_the_wire_carries_the_five_names_the_server_reads():
    class Reads(dict):
        def get(self, key, default=None):
            read.append(key)
            return default

    read = []
    KleisliServer._run_options(Reads())
    local_only = {"mode", "cancellation", "chunk_policy"}
    assert set(client_module._WIRE_OPTIONS) == set(read) \
        == set(QueryOptions._fields) - local_only
    assert len(client_module._WIRE_OPTIONS) == len(read) == 5


def test_no_function_outside_query_options_spells_the_options_out():
    names = set(QueryOptions._fields)
    spelled = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = node.args.posonlyargs + node.args.args \
                    + node.args.kwonlyargs
                if len({argument.arg for argument in arguments} & names) >= 3:
                    spelled.append(f"{path.relative_to(SRC)}:{node.name}")
    assert spelled == []


class _RecordingClient(KleisliClient):
    """A client whose requests are recorded and answered locally."""

    def __init__(self):
        self._closed = False
        self.sent = []

    def request(self, message):
        self.sent.append(dict(message))
        if message["op"] == "fetch":
            return {"values": encode_value(CList([1])), "done": True}
        return {"value": encode_value(CList([1])), "cursor": "c1"}


CLIENT_ENTRIES = {
    "run": lambda client, **options: client.run("T", **options),
    "query": lambda client, **options: client.query("T", **options),
    "open": lambda client, **options: client.open("T", **options),
    "stream": lambda client, **options: list(client.stream("T", **options)),
}


@pytest.mark.parametrize("entry", CLIENT_ENTRIES)
def test_the_client_sends_exactly_the_five_wire_names(entry):
    wire = {name: ALL_EIGHT[name] for name in client_module._WIRE_OPTIONS}
    client = _RecordingClient()
    CLIENT_ENTRIES[entry](client, **wire)
    first = client.sent[0]
    assert {key: first[key] for key in first if key in wire} == wire
    assert set(first) == {"op", "source", *wire}

    client = _RecordingClient()
    CLIENT_ENTRIES[entry](client, deadline=None, profile=None)
    assert set(client.sent[0]) == {"op", "source"}      # ``None`` is unsent

    for name in ("mode", "cancellation", "chunk_policy", "no_such_option"):
        client = _RecordingClient()
        with pytest.raises(TypeError, match=name):
            CLIENT_ENTRIES[entry](client, **{name: ALL_EIGHT.get(name, True)})
        assert client.sent == []
