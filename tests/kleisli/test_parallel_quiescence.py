"""Quiescence of the parallel loop: whatever ends a run, nothing is left over.

Every way a ``ParallelExt`` run can end — drained, abandoned after one
element, a body raising on the k-th request, a token cancelled mid-loop —
on both entry points, with a pinned and a moving window, in both execution
modes, flat and nested (``par-U{par-U{...}}``, whose inner loops run on the
outer loop's workers), must leave the process as it found it: no busy worker
and no thread but the engine's idle workers, no request held at the server's
gate, no open evaluation scope.
While it runs, the server never sees more than its declared cap of requests
at once — under loops wider than a narrow server, and under loops as wide as
a wide one (the width the planner gives them), nested — and what a run drains
is the sequential ``Ext``'s values from the sequential ``Ext``'s fetches, at
every width and in every lowering.
"""

import threading

import pytest

from repro.core.errors import QueryCancelledError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.eval import EvalScope
from repro.core.optimizer.parallel import ParallelExt
from repro.core.values import CList, iter_collection
from repro.kleisli.drivers import RelationalDriver
from repro.kleisli.engine import ExecutionMode, KleisliEngine
from repro.kleisli.governance import CancellationToken
from repro.relational import Database

#: (the server's cap, the width of every loop): loops wider than a narrow
#: server, and loops as wide as a wide one — nested, 16 x 16 workers.
WIDTHS = [(3, 5), (16, 16)]
KTH = 7      # the request that raises, or cancels the token
#: group -> keys; a one-key and a no-key group make inner loops of one and zero
GROUPS = {"a": 6, "b": 1, "c": 0, "d": 5, "e": 4, "f": 3}


class Boom(Exception):
    pass


def _fixture(hook=None, cap=3):
    """An engine over one gated server; ``hook(ordinal)`` runs inside the
    server's handler on every request."""
    database = Database("S")
    table = database.create_table_from_spec(
        "t", {"g": "string", "k": "string", "v": "int"})
    table.insert_many({"g": group, "k": f"{group}{i}", "v": 10 * i + j}
                      for group, count in GROUPS.items()
                      for i in range(count) for j in range(2))
    driver = RelationalDriver.with_latency("S", database, latency=0.002,
                                           max_concurrent_requests=cap)
    served = []
    lock = threading.Lock()

    def handler(sql):
        with lock:
            served.append(sql)
            ordinal = len(served)
        if hook is not None:
            hook(ordinal)
        return database.rows(sql)

    driver.remote.handler = handler
    engine = KleisliEngine()
    engine.register_driver(driver)
    return engine, driver


def _select(columns, column, value):
    quoted = B.prim("string_concat", value, B.const("'"))
    return A.Scan("S", {}, args={"query": B.prim(
        "string_concat", B.const(f"select {columns} from t where {column} = '"),
        quoted)}, kind="set")


def _query(loop, nested):
    """The values of every key, one request per key; ``loop`` builds the
    loops (``ParallelExt``, or ``Ext`` for the sequential reference)."""
    def values_of(key):
        return B.ext("r", B.singleton(B.project(B.var("r"), "v"), "list"),
                     _select("v", "k", key), "list")

    if not nested:
        keys = CList(f"{group}{i}" for group, count in GROUPS.items()
                     for i in range(count))
        return loop("x", values_of(B.var("x")), A.Const(keys), "list")
    inner = loop("row", values_of(B.project(B.var("row"), "k")),
                 _select("k", "g", B.var("g")), "list")
    return loop("g", inner, A.Const(CList(GROUPS)), "list")


def _sequential(nested, mode):
    engine, _ = _fixture()
    value = engine.execute(_query(A.Ext, nested), optimize=False, mode=mode)
    return (list(iter_collection(value)),
            engine.last_eval_statistics.elements_fetched)


def _execute(engine, expr, mode, token):
    return list(iter_collection(engine.execute(
        expr, optimize=False, mode=mode, cancellation=token)))


def _drain(engine, expr, mode, token):
    return list(engine.stream(expr, optimize=False, mode=mode,
                              cancellation=token))


def _close_after_one(engine, expr, mode, token):
    stream = engine.stream(expr, optimize=False, mode=mode, cancellation=token)
    first = next(stream)
    stream.close()
    return [first]


ENDINGS = ["execute", "stream drained", "stream closed after one",
           "body raises", "token cancelled"]


@pytest.mark.parametrize("cap,width", WIDTHS,
                         ids=[f"cap{c}-{w}wide" for c, w in WIDTHS])
@pytest.mark.parametrize("nested", [False, True], ids=["flat", "nested"])
@pytest.mark.parametrize("mode", [ExecutionMode.INTERPRET,
                                  ExecutionMode.COMPILED])
@pytest.mark.parametrize("adaptive", [False, True], ids=["pinned", "adaptive"])
@pytest.mark.parametrize("ending", ENDINGS)
def test_every_ending_leaves_the_process_quiescent(ending, adaptive, mode,
                                                   nested, cap, width,
                                                   threads_besides_workers):
    expected, expected_fetched = _sequential(nested, mode)
    threads = threads_besides_workers()
    scopes = EvalScope.live_count()
    token = None

    def hook(ordinal):
        if ordinal == KTH and ending == "body raises":
            raise Boom("request 7")
        if ordinal == KTH and token is not None:
            token.cancel("mid-loop")

    def loop(var, body, source, kind):
        return ParallelExt(var, body, source, kind, max_workers=width,
                           adaptive=adaptive)

    runs = {"execute": [_execute], "stream drained": [_drain],
            "stream closed after one": [_close_after_one]}.get(
                ending, [_execute, _drain])
    for run in runs:
        engine, driver = _fixture(hook, cap)
        expr = _query(loop, nested)
        if ending == "token cancelled":
            token = CancellationToken()
        if ending == "body raises":
            with pytest.raises(Exception, match="request 7"):
                run(engine, expr, mode, token)
        elif ending == "token cancelled":
            with pytest.raises(QueryCancelledError):
                run(engine, expr, mode, token)
        elif ending == "stream closed after one":
            assert run(engine, expr, mode, token) == expected[:1]
        else:
            assert run(engine, expr, mode, token) == expected
            assert engine.last_eval_statistics.elements_fetched == \
                expected_fetched

        assert threads_besides_workers(engine) == threads
        assert all(gate.in_flight == 0
                   for gate in engine.driver_gates.values())
        assert engine.driver_gates["S"].cap == cap
        assert EvalScope.live_count() == scopes
        assert 1 <= driver.remote.log.max_concurrency() <= cap


@pytest.mark.parametrize("nested", [False, True], ids=["flat", "nested"])
@pytest.mark.parametrize("width", [1, 5, 16])
def test_the_lowerings_agree_at_every_width(width, nested):
    """The width moves no value and no request: the interpreter, the eager
    closure and the chunked stream read what the sequential loop reads."""
    expected, expected_fetched = _sequential(nested, ExecutionMode.COMPILED)
    outcomes = []
    for run, mode in [(_execute, ExecutionMode.INTERPRET),
                      (_execute, ExecutionMode.COMPILED),
                      (_drain, ExecutionMode.COMPILED)]:
        engine, _ = _fixture(cap=16)
        expr = _query(lambda *loop: ParallelExt(*loop, max_workers=width),
                      nested)
        values = run(engine, expr, mode, None)
        statistics = engine.last_eval_statistics
        outcomes.append((values, statistics.elements_fetched,
                         statistics.scan_requests))
    keys = sum(GROUPS.values())
    requests = keys + len(GROUPS) if nested else keys
    assert outcomes == [(expected, expected_fetched, requests)] * 3
