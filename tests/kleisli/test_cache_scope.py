"""The two lifetimes of a subquery-cache entry.

A ``Cached`` node the optimizer introduces carries a key derived from the
subquery's content, so re-optimising a query re-mints the same key.  Its value
still belongs to one run: it goes through the engine's ``SubqueryCache``
(counters, spill to disk) but a later run, or a concurrent one, never reads
it, and it is dropped once its run is over.  A key the caller named is shared.
"""

import copy
import gc
import importlib.util
import os
import pathlib

from hypothesis import given, settings, strategies as st

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.compile import term_fingerprint
from repro.core.values import CSet, Record
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.session import Session

# The differential harness's term generator (tests are not a package).
_spec = importlib.util.spec_from_file_location(
    "_differential_terms",
    pathlib.Path(__file__).resolve().parents[1] / "nrc" / "test_compile_differential.py")
_differential = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_differential)
nrc_terms = _differential.nrc_terms


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


def test_a_content_key_is_the_fingerprint_itself():
    """No digest: the key spells the fingerprint out, and binders renamed
    (the names the desugarer mints differ per parse) change neither."""
    scan = A.Scan("T", {"table": "t"}, kind="set")
    assert A.Cached(scan).key == A.Cached.CONTENT_PREFIX + repr(term_fingerprint(scan))
    renamed = [A.Cached(B.ext(name, B.singleton(B.var(name)), scan)) for name in "xy"]
    assert renamed[0].key == renamed[1].key


@settings(max_examples=200, deadline=None)
@given(nrc_terms, nrc_terms, st.booleans())
def test_content_keys_are_equal_exactly_when_fingerprints_are(a, other, same):
    b = copy.deepcopy(a) if same else other
    assert (A.Cached(a).key == A.Cached(b).key) == \
        (term_fingerprint(a) == term_fingerprint(b))


def _nested_members(depth):
    """``{v0 | \\v0 <- T0, member(v0, {v1 | .. member(v1, .. {vk | \\vk <- Tk})})}``"""
    text = f"{{v{depth} | \\v{depth} <- T{depth}}}"
    for level in range(depth - 1, -1, -1):
        text = f"{{v{level} | \\v{level} <- T{level}, member(v{level}, {text})}}"
    return text


def test_nested_subquery_keys_grow_linearly():
    """Each level's subquery is hoisted inside the one above it; its key
    holds the subtree once, not once more per content key below it."""
    longest = []
    for depth in range(2, 13):
        for mode in ("compiled", "interpret"):
            session = Session()
            for level in range(depth + 1):   # T_i = {i .. 19}
                session.bind(f"T{level}", list(range(level, 20)), list_as="set")
            result = session.query(_nested_members(depth), mode=mode)
            assert result.value == CSet(range(depth, 20))
            statistics = session.engine.last_eval_statistics
            # One entry per level, probed once per element of the loop above.
            assert (statistics.cache_misses, statistics.cache_hits) == \
                (depth, sum(19 - level for level in range(depth)))
        keys = [node.key for node in _cached_nodes(result.optimized)]
        assert len(keys) == depth
        longest.append(max(map(len, keys)))
    steps = [after - before for before, after in zip(longest, longest[1:])]
    assert max(steps) - min(steps) <= 2     # the level's digits widen, nothing more


def _cached_nodes(expr):
    found = [expr] if isinstance(expr, A.Cached) else []
    for child in expr.children():
        found.extend(_cached_nodes(child))
    return found


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
