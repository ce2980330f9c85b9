"""The two lifetimes of a subquery-cache entry.

A ``Cached`` node the optimizer introduces carries a key derived from the
subquery's content, so re-optimising a query re-mints the same key.  Its value
still belongs to one run: it goes through the engine's ``SubqueryCache``
(counters, spill to disk) but a later run, or a concurrent one, never reads
it, and it is dropped once its run is over.  A key the caller named is shared.
"""

import gc
import os

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.values import CSet, Record
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.session import Session


class TableDriver(Driver):
    """Returns whatever ``rows`` currently holds, counting requests."""

    def __init__(self, rows):
        super().__init__("T")
        self.rows = rows
        self.requests = 0

    def _execute(self, request):
        self.requests += 1
        return CSet(self.rows)


def _query():
    """``{x + y | \\x <- {1,2,3}, \\y <- cached(scan T)}``"""
    inner = B.ext("y", B.singleton(B.prim("add", B.var("x"), B.var("y"))),
                  A.Cached(A.Scan("T", {"table": "t"}, kind="set")))
    return B.ext("x", inner, A.Const(CSet([1, 2, 3])))


def _start_another_run(engine):
    """Entries of finished (collected) runs go when the next run starts."""
    gc.collect()
    assert engine.execute(B.const(1), optimize=False) == 1


def test_content_keys_are_stable_and_namespaced():
    first, second = _query().body.source, _query().body.source
    assert first is not second and first.key == second.key
    assert first.key.startswith(A.Cached.CONTENT_PREFIX)
    other = A.Cached(A.Scan("T", {"table": "u"}, kind="set"))
    assert other.key != first.key
    assert A.Cached(first.expr, key="mine").key == "mine"


def test_a_content_keyed_entry_lives_in_the_engine_cache_for_one_run():
    engine = KleisliEngine()
    driver = engine.register_driver(TableDriver([10, 20]))
    for mode in ("compiled", "interpret"):
        driver.requests = 0
        driver.rows = [10, 20]
        first = engine.execute(_query(), optimize=False, mode=mode)
        assert first == CSet([11, 12, 13, 21, 22, 23])
        assert driver.requests == 1
        statistics = engine.last_eval_statistics
        assert (statistics.cache_misses, statistics.cache_hits) == (1, 2)

        # The source changed: the same term, run again, must see it.
        driver.rows = [100]
        assert engine.execute(_query(), optimize=False, mode=mode) == CSet([101, 102, 103])
        assert driver.requests == 2
    assert engine.health()["subquery_cache"]["hits"] == 8
    _start_another_run(engine)
    assert len(engine.cache) == 0


def test_a_large_content_keyed_entry_spills_and_its_file_goes_with_the_run():
    engine = KleisliEngine()
    engine.cache.spill_threshold_bytes = 64
    engine.register_driver(TableDriver(list(range(200))))
    engine.execute(_query(), optimize=False)
    assert engine.cache.spills == 1
    assert len(os.listdir(engine.cache._directory)) == 1
    _start_another_run(engine)
    assert len(engine.cache) == 0
    assert os.listdir(engine.cache._directory) == []


def test_an_index_entry_stays_in_memory_and_goes_with_the_run():
    """A spilled entry is read back whole on every access, and an index is
    accessed once per probe: it is never written out, however large."""
    engine = KleisliEngine()
    engine.cache.spill_threshold_bytes = 64
    rows = CSet(Record({"k": i % 5, "v": i}) for i in range(200))
    query = B.ext("x", B.singleton(B.prim("count", B.ext(
        "y", A.IfThenElse(B.eq(B.project(B.var("y"), "k"), B.var("x")),
                          B.singleton(B.project(B.var("y"), "v")), A.Empty("set")),
        B.var("ROWS")))), A.Const(CSet(range(5))))
    assert "probe(cached(index(ROWS by" in engine.compile(query).pretty()
    assert engine.execute(query, {"ROWS": rows}) == CSet([40])
    statistics = engine.last_eval_statistics
    assert (statistics.cache_misses, statistics.cache_hits) == (1, 4)
    assert engine.cache.spills == 0 and engine.cache._directory is None
    assert len(engine.cache) == 1
    _start_another_run(engine)
    assert len(engine.cache) == 0


def test_a_run_context_is_not_cyclic_garbage(run_views):
    """The view (and the values it owns) goes when its run does, not at the
    next cyclic collection: on ``execute``, on a drained stream and on a
    stream closed after one element."""
    session = Session()
    session.bind("OBS", [{"k": i % 4, "v": i} for i in range(40)], list_as="set")
    text = "{[k = o.k, n = count({x.v | \\x <- OBS, x.k = o.k})] | \\o <- OBS}"
    session.query(text)
    list(session.stream(text))
    stream = session.stream(text)
    next(stream)
    stream.close()
    assert len(run_views) == 3
    assert [view() for view in run_views] == [None] * 3


def test_a_named_entry_outlives_its_run():
    engine = KleisliEngine()
    driver = engine.register_driver(TableDriver([1]))
    named = A.Cached(A.Scan("T", {"table": "t"}, kind="set"), key="named")
    assert engine.execute(named, optimize=False) == CSet([1])
    _start_another_run(engine)
    assert engine.cache["named"] == CSet([1])
    assert engine.execute(named, optimize=False) == CSet([1])
    assert driver.requests == 1
