"""A bind join changes how requests travel, never what they ask or return.

Over a fake remote server that ships a batch in one round trip, loops of
the form ``{f(x, S(g(x))) | \\x <- T}`` and the two-level nest
``{f(x, y, S2(y)) | \\x <- T, \\y <- S1(x)}``, in set, bag and list kinds,
over sources with duplicate elements and requests with empty results:

* the optimized plan (a bind join), on every local path of
  ``tests/paths.py``, the unoptimized plan and the interpreter return the
  same value;
* the server sees the same multiset of request dicts;
* each bind join takes ``ceil(n / remote_max_chunk)`` round trips for its
  ``n`` requests;
* a bad request raises the error class per-request dispatch raises;
* no gate slot is left taken.
"""

import math
import threading
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DriverError
from repro.core.nrc import ast as A
from repro.core.optimizer.parallel import make_bind_join_rule_set
from repro.core.values import CBag, CList, CSet, iter_collection
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import KleisliEngine
from repro.net.remote import RemoteSource

from paths import assert_agree, outcomes

CAP = 4
BAD_KEY = 13


class BatchServer(Driver):
    """``{"op": o, "key": k}`` -> ``k % 3`` numbers (none for a multiple of
    3); ``key`` 13 is a request the server rejects.  One ``call_batch``
    per batch, and a record of every request and every batch's stage."""

    batch_single_round_trip = True

    def __init__(self, name="far"):
        super().__init__(name)
        self.remote = RemoteSource(name, self._serve, latency=0.0,
                                   max_concurrent_requests=CAP)
        self.requests = []
        self.batches = []
        self._lock = threading.Lock()

    def _serve(self, request):
        with self._lock:
            self.requests.append(tuple(sorted(request.items())))
        if request["key"] == BAD_KEY:
            raise DriverError(f"no such key {BAD_KEY}")
        return CList([request["key"] * 10 + i for i in range(request["key"] % 3)])

    def _execute(self, request):
        return self.remote.call(request)

    def execute_batch(self, requests):
        with self._lock:
            self.batches.append(requests[0]["op"])
        self.request_count += len(requests)
        return self.remote.call_batch([dict(request) for request in requests])


def _engine():
    engine = KleisliEngine()
    engine.register_driver(BatchServer(), latency=0.05)
    return engine


def _scan(op, key):
    return A.Scan("far", {"op": op}, args={"key": key}, kind="list")


def _mod(expr, m):
    return A.PrimCall("mod", [expr, A.Const(m)])


def _record(kind, **fields):
    return A.Singleton(A.RecordExpr(fields), kind)


def _terms(kind, source, modulus):
    """The three loop shapes over ``source``, all of kind ``kind``."""
    x, y = A.Var("x"), A.Var("y")
    counted = A.Ext("x", _record(kind, x=x, n=A.PrimCall(
        "count", [_scan("one", _mod(x, modulus))])), source, kind)
    inner = A.Ext("x", A.Ext("y", _record(kind, x=x, y=y),
                             _scan("one", _mod(x, modulus)), kind), source, kind)
    nest = A.Ext("x", A.Ext("y", _record(kind, x=x, y=y, n=A.PrimCall(
        "count", [_scan("two", _mod(y, modulus))])),
        _scan("one", _mod(x, modulus)), kind), source, kind)
    return {"counted": counted, "inner source": inner, "nest": nest}


def _outcomes(term):
    """Every local path's outcome on a fresh engine and server, with the
    unoptimized plan compiled and the optimized one interpreted; no gate
    slot is left taken."""
    results = outcomes(term, on=_engine, ordered=False, extra={
        "unoptimized": lambda engine: engine.execute(term, optimize=False),
        "interpreted": lambda engine: engine.execute(term, mode="interpret"),
    })
    for outcome in results.values():
        assert all(gate.in_flight == 0 for gate in outcome.on.driver_gates.values())
    assert_agree(results)
    return results


sources = st.lists(st.integers(min_value=0, max_value=40), max_size=70)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["set", "bag", "list"]), items=sources,
       container=st.sampled_from([CList, CBag]),
       modulus=st.sampled_from([5, 12]))
def test_a_bind_join_agrees_with_per_request_dispatch(kind, items, container, modulus):
    source = A.Const(container(items))
    for label, term in _terms(kind, source, modulus).items():
        assert A.BindScan in {type(node) for node in _walk(_engine().compile(term))}, label
        results = _outcomes(term)
        servers = {path: outcome.on.drivers["far"] for path, outcome in results.items()}
        for path, server in servers.items():
            assert Counter(server.requests) == Counter(servers["interpret"].requests), path
        # Requests per bind-join stage, from the per-request run: the stage of
        # a request is its ``op``.
        sizes = Counter(dict(request)["op"] for request in servers["unoptimized"].requests)
        for path, cap in (("query", 32),
                          ("stream", results["stream"].on.last_plan.remote_max_chunk)):
            assert Counter(servers[path].batches) == \
                {op: math.ceil(n / cap) for op, n in sizes.items() if n}, (label, path)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["set", "bag", "list"]), items=sources,
       position=st.integers(min_value=0, max_value=70))
def test_a_bad_request_raises_what_per_request_dispatch_raises(kind, items, position):
    items = list(items)
    items.insert(min(position, len(items)), BAD_KEY)
    source = A.Const(CList(items))
    for label, term in _terms(kind, source, 41).items():
        assert _outcomes(term)["interpret"].form == ("error", "DriverError"), label


def _walk(expr):
    yield expr
    for child in expr.children():
        yield from _walk(child)


def test_a_set_source_gives_a_set_of_pairs():
    """A source proven a set binds to a set of ``[item, result]`` pairs,
    any other to a list: a pair per element, in order, nothing merged."""
    rules = make_bind_join_rule_set(lambda driver: True, lambda driver: True)
    proven = A.Union(A.Singleton(A.Const(1), "set"), A.Singleton(A.Const(2), "set"), "set")
    for source, kind in ((proven, "set"), (A.Const(CSet([1, 2])), "list")):
        term = A.Ext("k", A.Singleton(A.PrimCall("count", [_scan("one", A.Var("k"))]), "bag"),
                     source, "bag")
        bound = rules.apply(term)
        assert [node.kind for node in _walk(bound) if type(node) is A.BindScan] == [kind]
        engine = _engine()
        value = engine.execute(bound, optimize=False)
        assert list(iter_collection(value)) == [1, 2]
        assert value == engine.execute(term, optimize=False, mode="interpret")
