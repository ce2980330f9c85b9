"""The engine's compile cache: a fingerprint-keyed LRU, not a wholesale purge.

ROADMAP open item closed by this suite: the old memo evicted *everything*
at 128 entries, so the 129th distinct ad-hoc query threw away 128 warm
compilations.  The LRU evicts exactly one (the least recently used), keeps
hot queries hot (move-to-end on hit), and reports hit/miss counters through
``EvalStatistics``.  A lowering is kept from its second time on: the first
leaves only its key's hash in the doorkeeper (``_lowered_twice`` below is
how a test gets a query kept).
"""

import gc
import tracemalloc

from repro.core.nrc import builder as B
from repro.core.values import CList
from repro.core.nrc.compile import term_fingerprint
from repro.kleisli.engine import KleisliEngine, _COMPILED_CACHE_LIMIT
from repro.kleisli.session import Session


def _query(n: int):
    """A family of structurally distinct terms (distinct fingerprints)."""
    return B.prim("add", B.const(n), B.const(1000))


def _lowered_twice(lower, term):
    """Lower ``term`` twice, which keeps it; the kept lowering."""
    lower(term)
    return lower(term)


class TestLRUEviction:
    def test_eviction_is_one_entry_not_wholesale(self):
        engine = KleisliEngine()
        for n in range(_COMPILED_CACHE_LIMIT):
            _lowered_twice(engine.compiled_query, _query(n))
        assert len(engine._compiled_queries) == _COMPILED_CACHE_LIMIT
        _lowered_twice(engine.compiled_query, _query(_COMPILED_CACHE_LIMIT))
        # One in, one out — the other 127 survive.
        assert len(engine._compiled_queries) == _COMPILED_CACHE_LIMIT
        assert engine._compiled_queries.evictions == 1

    def test_hit_moves_entry_to_most_recently_used(self):
        engine = KleisliEngine()
        for n in range(_COMPILED_CACHE_LIMIT):
            _lowered_twice(engine.compiled_query, _query(n))
        # Touch the oldest entry, then overflow: the *second*-oldest must go.
        oldest = engine.compiled_query(_query(0))
        _lowered_twice(engine.compiled_query, _query(_COMPILED_CACHE_LIMIT))
        assert engine.compiled_query(_query(0)) is oldest  # still cached
        hits_before = engine._compiled_queries.hits
        engine.compiled_query(_query(1))  # evicted: recompiles (a miss)
        assert engine._compiled_queries.hits == hits_before

    def test_memoization_still_holds(self):
        engine = KleisliEngine()
        kept = _lowered_twice(engine.compiled_query, _query(7))
        assert engine.compiled_query(_query(7)) is kept


class TestAdmission:
    def test_a_query_lowered_once_leaves_one_int(self):
        engine = KleisliEngine()
        first = engine.compiled_query(_query(3))
        cache = engine._compiled_queries
        assert len(cache) == 0 and list(cache._seen) == [
            hash(("eager", term_fingerprint(_query(3))))]
        second = engine.compiled_query(_query(3))
        assert second is not first  # lowered again, and kept this time
        assert len(cache) == 1 and len(cache._seen) == 0
        assert engine.compiled_query(_query(3)) is second

    def test_the_doorkeeper_holds_at_most_the_limit(self):
        engine = KleisliEngine()
        for n in range(3 * _COMPILED_CACHE_LIMIT):
            engine.compiled_query(_query(n))
        cache = engine._compiled_queries
        assert len(cache) == 0 and len(cache._seen) == _COMPILED_CACHE_LIMIT
        # The oldest hashes went first: an early query starts over ...
        engine.compiled_query(_query(0))
        assert len(cache) == 0
        # ... and a recent one is kept on its second lowering.
        engine.compiled_query(_query(3 * _COMPILED_CACHE_LIMIT - 1))
        assert len(cache) == 1

    def test_the_two_targets_are_admitted_apart(self):
        engine = KleisliEngine()
        term = B.ext("x", B.singleton(B.var("x"), "list"), B.var("XS"),
                     kind="list")
        engine.compiled_query(term)
        engine.compiled_chunked(term)
        assert len(engine._compiled_queries) == 0

    def test_prepared_forms_are_kept_from_the_first_send(self):
        session = Session()
        session.query("1 + 2")
        assert len(session._forms) == 1 and len(session._forms._seen) == 0
        assert len(session.engine._compiled_queries) == 0


#: Traced bytes an engine may keep after 200 distinct ad-hoc texts.  Measured
#: 21 940 on Python 3.11 (the doorkeeper's 128 ints in their ordered dict);
#: the bound leaves 1.8x of that.  Keeping every lowering, the LRU held
#: 970 417: its 128 most recent queries' closures and fingerprints.
AD_HOC_RESIDUE_BYTES = 40_000


class TestAdHocResidue:
    def test_distinct_texts_leave_no_lowered_query(self, e2e_workloads):
        workload = e2e_workloads.build("adhoc_cold", seed=22, seconds=1)
        texts = [text for op in workload.warmup + workload.ops
                 for _, text in op.parts][:200]
        assert len(set(texts)) == 200
        session = Session()
        for name, (rows, list_as) in workload.bindings.items():
            session.bind(name, rows, list_as=list_as)
        cache = session.engine._compiled_queries
        tracemalloc.start()
        try:
            for text in texts:
                session.query(text)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            assert len(cache) == 0
            assert 0 < len(cache._seen) <= _COMPILED_CACHE_LIMIT
            cache.clear()
            gc.collect()
            kept = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < kept <= AD_HOC_RESIDUE_BYTES, kept


class TestSharedCacheAcrossLoweringTargets:
    def test_eager_and_stream_lowerings_coexist(self):
        """Two target tags, nothing else: the name the e2e tracer still
        patches, ``compiled_stream``, is ``compiled_chunked`` itself."""
        assert KleisliEngine.compiled_stream is KleisliEngine.compiled_chunked
        engine = KleisliEngine()
        term = B.ext("x", B.singleton(B.var("x"), "list"), B.var("XS"),
                     kind="list")
        eager = _lowered_twice(engine.compiled_query, term)
        streamed = _lowered_twice(engine.compiled_chunked, term)
        assert eager is not streamed
        assert engine.compiled_query(term) is eager
        assert engine.compiled_chunked(term) is streamed
        assert len(engine._compiled_queries) == 2  # one per target
        assert {key[0] for key in engine._compiled_queries._entries} == \
            {"eager", "chunked"}

    def test_stream_lowering_is_memoized_across_calls(self):
        engine = KleisliEngine()
        term = B.ext("x", B.singleton(B.var("x"), "list"), B.var("XS"),
                     kind="list")
        kept = _lowered_twice(engine.compiled_chunked, term)
        assert engine.compiled_chunked(term) is kept


class TestStatisticsCounters:
    def test_execute_reports_cache_miss_then_hit(self):
        engine = KleisliEngine()
        term = B.prim("add", B.const(1), B.const(2))
        for _ in range(2):  # lowered, then lowered again and kept
            engine.execute(term, optimize=False)
            missed = engine.last_eval_statistics
            assert (missed.compile_cache_misses, missed.compile_cache_hits) == (1, 0)
        engine.execute(term, optimize=False)
        third = engine.last_eval_statistics
        assert (third.compile_cache_misses, third.compile_cache_hits) == (0, 1)

    def test_stream_reports_cache_accounting(self):
        engine = KleisliEngine()
        term = B.ext("x", B.singleton(B.var("x"), "list"), B.var("XS"),
                     kind="list")
        bindings = {"XS": CList([1, 2, 3])}
        for _ in range(2):
            assert list(engine.stream(term, bindings, optimize=False)) == [1, 2, 3]
            assert engine.last_eval_statistics.compile_cache_misses == 1
        assert list(engine.stream(term, bindings, optimize=False)) == [1, 2, 3]
        assert engine.last_eval_statistics.compile_cache_hits == 1

    def test_counters_appear_in_as_dict(self):
        engine = KleisliEngine()
        engine.execute(B.const(1), optimize=False)
        payload = engine.last_eval_statistics.as_dict()
        assert "compile_cache_hits" in payload
        assert "compile_cache_misses" in payload
        assert "stream_fallbacks" in payload


class TestThreadSafety:
    def test_concurrent_get_put_is_consistent(self):
        """Scheduler worker threads compile through one engine: concurrent
        get/put on the LRU must neither corrupt the OrderedDict nor lose
        counter increments (regression: the cache had no lock)."""
        import threading

        from repro.kleisli.engine import _CompileCache

        cache = _CompileCache(limit=16)
        rounds = 400
        workers = 8
        errors = []
        barrier = threading.Barrier(workers)

        def worker(seed):
            try:
                barrier.wait()
                for i in range(rounds):
                    key = ("eager", (seed * 31 + i) % 64)
                    if cache.get(key) is None:
                        cache.put(key, object())
            except Exception as error:  # pragma: no cover - the regression
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors, errors
        assert len(cache) <= 16
        # Locked counters: every get incremented exactly one of hits/misses.
        assert cache.hits + cache.misses == workers * rounds

    def test_concurrent_streams_share_the_cache(self):
        """End-to-end: many threads lowering the same term through one
        engine agree on the (single) compiled object."""
        import threading

        engine = KleisliEngine()
        term = B.ext("x", B.singleton(B.var("x"), "list"), B.var("XS"),
                     kind="list")
        _lowered_twice(engine.compiled_chunked, term)
        seen = []
        lock = threading.Lock()

        def worker():
            query = engine.compiled_chunked(term)
            with lock:
                seen.append(query)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(id(query) for query in seen)) == 1
