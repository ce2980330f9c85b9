"""Where a ``Cached`` node's value lives: in its run's own dict.

A ``Cached`` node the optimizer introduces carries a key derived from the
subquery's content, so re-optimising a query re-mints the same key.  Its value
still belongs to one run: it is kept in the run's ``EvalContext.cache``, a
later run or a concurrent one never reads it, and it goes with its run.  A key
the caller named is no different.  Equal keys in one run share one entry.
"""

import copy
import gc
import importlib.util
import pathlib
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.compile import term_fingerprint
from repro.core.nrc.eval import is_lazy_stream
from repro.core.nrc.prims import KeyIndex
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


def test_a_content_keyed_entry_lives_in_its_run(run_caches):
    engine = KleisliEngine()
    driver = engine.register_driver(TableDriver([10, 20]))
    key = _query().body.source.key
    for mode in ("compiled", "interpret"):
        driver.requests = 0
        driver.rows = [10, 20]
        first = engine.execute(_query(), optimize=False, mode=mode)
        assert first == CSet([11, 12, 13, 21, 22, 23])
        assert driver.requests == 1
        statistics = engine.last_eval_statistics
        assert (statistics.cache_misses, statistics.cache_hits) == (1, 2)
        assert run_caches[-1] == {key: CSet([10, 20])}

        # The source changed: the same term, run again, must see it.
        driver.rows = [100]
        assert engine.execute(_query(), optimize=False, mode=mode) == CSet([101, 102, 103])
        assert driver.requests == 2
        statistics = engine.last_eval_statistics
        assert (statistics.cache_misses, statistics.cache_hits) == (1, 2)
        assert run_caches[-1] == {key: CSet([100])}


def test_an_index_entry_stays_in_memory_and_goes_with_the_run(run_caches, run_views):
    """A cached index is probed once per outer row: it is kept as it was
    built, in the run's dict, and nothing but the run holds it."""
    engine = KleisliEngine()
    rows = CSet(Record({"k": i % 5, "v": i}) for i in range(200))
    query = B.ext("x", B.singleton(B.prim("count", B.ext(
        "y", A.IfThenElse(B.eq(B.project(B.var("y"), "k"), B.var("x")),
                          B.singleton(B.project(B.var("y"), "v")), A.Empty("set")),
        B.var("ROWS")))), A.Const(CSet(range(5))))
    assert "probe(cached(index(ROWS by" in engine.compile(query).pretty()
    assert engine.execute(query, {"ROWS": rows}) == CSet([40])
    statistics = engine.last_eval_statistics
    assert (statistics.cache_misses, statistics.cache_hits) == (1, 4)
    [index] = run_caches[0].values()
    assert type(index) is KeyIndex and type(index.groups) is dict
    assert index.rows == 200
    assert len(run_views) == 1 and run_views[0]() is None
    assert gc.get_referrers(run_caches[0]) == [run_caches]


def test_a_run_context_is_not_cyclic_garbage(run_views):
    """The context (and the values it caches) goes when its run does, not at
    the next cyclic collection: on ``execute``, on a drained stream and on a
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


def test_a_named_entry_is_its_runs():
    """A caller-named key names an entry of its run: within the run, equal
    keys share it (``count`` and the value: one miss, one hit); the second
    run asks the driver again."""
    engine = KleisliEngine()
    driver = engine.register_driver(TableDriver([1]))
    named = A.Cached(A.Scan("T", {"table": "t"}, kind="set"), key="named")
    term = B.record(n=B.prim("count", named), value=named)
    for mode in ("compiled", "interpret"):
        driver.requests = 0
        for run in (1, 2):
            assert engine.execute(term, optimize=False, mode=mode) == \
                Record({"n": 1, "value": CSet([1])})
            statistics = engine.last_eval_statistics
            assert (statistics.cache_misses, statistics.cache_hits) == (1, 1)
            assert driver.requests == run


#: A semi-join whose set of keys is a cached subquery over ``T``.
_ISOLATION_TEXT = "{o | \\o <- OUT, member(o, {t.k | \\t <- T})}"


def _isolated_sessions(engine):
    """Two sessions on ``engine`` that bind ``T`` to disjoint key sets."""
    sessions = []
    for keys in (range(0, 5), range(5, 10)):
        session = Session(engine)
        session.bind("OUT", list(range(10)), list_as="list")
        session.bind("T", [{"k": k} for k in keys], list_as="set")
        sessions.append(session)
    return sessions


def _interleave(first, second):
    """Drain two streams of one length, one element of each in turn."""
    pairs = list(zip(first, second))
    assert next(second, None) is None
    return [a for a, _ in pairs], [b for _, b in pairs]


def test_interleaved_runs_read_only_their_own_content_keyed_entry(run_caches):
    engine = KleisliEngine()
    left, right = _isolated_sessions(engine)
    assert "cached(" in left.query(_ISOLATION_TEXT).optimized.pretty()
    for mode in ("compiled", "interpret"):
        del run_caches[:]
        drained = _interleave(left.stream(_ISOLATION_TEXT, mode=mode),
                              right.stream(_ISOLATION_TEXT, mode=mode))
        assert drained == ([0, 1, 2, 3, 4], [5, 6, 7, 8, 9])
        assert [list(cache.values()) for cache in run_caches] == \
            [[CSet(range(0, 5))], [CSet(range(5, 10))]]
        assert all(key.startswith(A.Cached.CONTENT_PREFIX)
                   for cache in run_caches for key in cache)


def test_interleaved_runs_read_only_their_own_named_entry():
    engine = KleisliEngine()
    sessions = _isolated_sessions(engine)
    keys = A.Cached(B.ext("t", B.singleton(B.project(B.var("t"), "k")),
                          B.var("T")), key="named")
    term = B.ext("o", B.if_then_else(B.prim("member", B.var("o"), keys),
                                     B.singleton(B.var("o"), "list"),
                                     B.empty("list")),
                 B.var("OUT"), "list")
    for mode in ("compiled", "interpret"):
        left, right = (engine.stream(term, session.values, optimize=False,
                                     mode=mode) for session in sessions)
        assert _interleave(left, right) == ([0, 1, 2, 3, 4], [5, 6, 7, 8, 9])


# ---------------------------------------------------------------------------
# One run's dict, read the same way by both modes
# ---------------------------------------------------------------------------

MODES = pytest.mark.parametrize("mode", ["compiled", "interpret"])


class TablesDriver(Driver):
    """Serves each table of ``tables`` (a list or a factory of an iterable),
    counting requests per table; a table in ``failing`` raises once."""

    def __init__(self, tables, failing=()):
        super().__init__("T")
        self.tables = tables
        self.failing = set(failing)
        self.requests = {}

    def _execute(self, request):
        table = request["table"]
        self.requests[table] = self.requests.get(table, 0) + 1
        if table in self.failing:
            self.failing.discard(table)
            raise RuntimeError(f"{table} is down")
        rows = self.tables[table]
        return rows() if callable(rows) else CSet(rows)


def _scan(table, key=None):
    return A.Cached(A.Scan("T", {"table": table}, kind="set"), key=key)


def _counted(cached):
    """``[n = count(C), value = C]``: one miss, then one hit of one key."""
    return B.record(n=B.prim("count", cached), value=cached)


@MODES
def test_an_empty_entry_is_still_a_hit(mode, run_caches):
    """An empty result is a value like any other: the second use reads it
    and does not ask the driver again."""
    engine = KleisliEngine()
    driver = engine.register_driver(TablesDriver({"t": []}))
    cached = _scan("t")
    assert engine.execute(_counted(cached), optimize=False, mode=mode) == \
        Record({"n": 0, "value": CSet([])})
    statistics = engine.last_eval_statistics
    assert (statistics.cache_misses, statistics.cache_hits) == (1, 1)
    assert driver.requests == {"t": 1}
    assert run_caches == [{cached.key: CSet([])}]


@MODES
def test_distinct_keys_in_one_run_keep_their_own_entries(mode, run_caches):
    """Two content keys and a named key over the same scan as one of them:
    three entries, each filled once, each holding its own value."""
    engine = KleisliEngine()
    driver = engine.register_driver(TablesDriver({"t": [1, 2], "u": [7]}))
    t, u, named = _scan("t"), _scan("u"), _scan("u", key="named")
    term = B.record(t=t, u=u, named=named,
                    again=B.record(t=t, u=u, named=named))
    assert engine.execute(term, optimize=False, mode=mode) == Record({
        "t": CSet([1, 2]), "u": CSet([7]), "named": CSet([7]),
        "again": Record({"t": CSet([1, 2]), "u": CSet([7]), "named": CSet([7])})})
    statistics = engine.last_eval_statistics
    assert (statistics.cache_misses, statistics.cache_hits) == (3, 3)
    assert driver.requests == {"t": 1, "u": 2}
    assert run_caches == [{t.key: CSet([1, 2]), u.key: CSet([7]),
                           "named": CSet([7])}]


@MODES
def test_a_failed_fill_leaves_no_entry(mode, run_caches):
    """A subquery that raises stores nothing; the next run fills the key."""
    engine = KleisliEngine()
    driver = engine.register_driver(TablesDriver({"t": [1]}, failing={"t"}))
    cached = _scan("t")
    with pytest.raises(RuntimeError, match="t is down"):
        engine.execute(_counted(cached), optimize=False, mode=mode)
    assert run_caches == [{}]
    assert engine.execute(_counted(cached), optimize=False, mode=mode) == \
        Record({"n": 1, "value": CSet([1])})
    assert driver.requests == {"t": 2}
    assert run_caches[1] == {cached.key: CSet([1])}


@MODES
def test_a_drained_stream_is_the_entry_every_use_reads(mode, run_caches):
    """A driver's lazy rows are drained once into the entry; the later use
    reads that entry, not a second (exhausted) stream."""
    engine = KleisliEngine()
    driver = engine.register_driver(TablesDriver({"t": lambda: iter([3, 1, 2])}))
    result = engine.execute(_counted(_scan("t")), optimize=False, mode=mode)
    [entry] = run_caches[0].values()
    assert not is_lazy_stream(entry) and list(entry) == [3, 1, 2]
    assert result.project("n") == 3 and result.project("value") == entry
    assert driver.requests == {"t": 1}


@MODES
def test_an_index_entry_is_built_once_per_run(mode, run_caches):
    """The optimizer's cached index is built on the first outer row and
    probed from the run's dict on every later one, in either mode."""
    engine = KleisliEngine()
    rows = CSet(Record({"k": i % 5, "v": i}) for i in range(200))
    query = B.ext("x", B.singleton(B.prim("count", B.ext(
        "y", A.IfThenElse(B.eq(B.project(B.var("y"), "k"), B.var("x")),
                          B.singleton(B.project(B.var("y"), "v")), A.Empty("set")),
        B.var("ROWS")))), A.Const(CSet(range(5))))
    for run in (1, 2):
        assert engine.execute(query, {"ROWS": rows}, mode=mode) == CSet([40])
        statistics = engine.last_eval_statistics
        assert (statistics.cache_misses, statistics.cache_hits) == (1, 4)
    assert len(run_caches) == 2
    for cache in run_caches:
        [index] = cache.values()
        assert type(index) is KeyIndex and index.rows == 200
    first, second = (next(iter(cache.values())) for cache in run_caches)
    assert first is not second


@MODES
def test_a_run_filling_its_entry_holds_up_no_other_run(mode, run_caches):
    """No lock spans runs: while one run waits on its driver inside a
    ``Cached`` fill, another run on the same engine fills and reads its own
    entry and finishes."""
    entered, release = threading.Event(), threading.Event()

    def slow():
        entered.set()
        assert release.wait(10)
        return iter([1, 2])

    engine = KleisliEngine()
    engine.register_driver(TablesDriver({"slow": slow, "fast": [5]}))
    results = {}
    stuck = threading.Thread(target=lambda: results.update(slow=engine.execute(
        _counted(_scan("slow")), optimize=False, mode=mode)))
    stuck.start()
    try:
        assert entered.wait(10)
        fast = threading.Thread(target=lambda: results.update(fast=engine.execute(
            _counted(_scan("fast")), optimize=False, mode=mode)))
        fast.start()
        fast.join(10)
        assert not fast.is_alive()
        assert results == {"fast": Record({"n": 1, "value": CSet([5])})}
    finally:
        release.set()
        stuck.join(10)
    assert not stuck.is_alive()
    slow_result = results["slow"]
    assert slow_result.project("n") == 2
    assert list(slow_result.project("value")) == [1, 2]
    slow_cache, fast_cache = run_caches
    assert list(fast_cache.values()) == [CSet([5])]
    assert [list(entry) for entry in slow_cache.values()] == [[1, 2]]
