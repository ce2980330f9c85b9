"""The engine's compile cache: a fingerprint-keyed LRU, not a wholesale purge.

ROADMAP open item closed by this suite: the old memo evicted *everything*
at 128 entries, so the 129th distinct ad-hoc query threw away 128 warm
compilations.  The LRU evicts exactly one (the least recently used), keeps
hot queries hot (move-to-end on hit), and reports hit/miss counters through
``EvalStatistics``.
"""

from repro.core.nrc import builder as B
from repro.core.values import CList
from repro.kleisli.engine import KleisliEngine, _COMPILED_CACHE_LIMIT


def _query(n: int):
    """A family of structurally distinct terms (distinct fingerprints)."""
    return B.prim("add", B.const(n), B.const(1000))


class TestLRUEviction:
    def test_eviction_is_one_entry_not_wholesale(self):
        engine = KleisliEngine()
        for n in range(_COMPILED_CACHE_LIMIT):
            engine.compiled_query(_query(n))
        assert len(engine._compiled_queries) == _COMPILED_CACHE_LIMIT
        engine.compiled_query(_query(_COMPILED_CACHE_LIMIT))
        # One in, one out — the other 127 survive.
        assert len(engine._compiled_queries) == _COMPILED_CACHE_LIMIT
        assert engine._compiled_queries.evictions == 1

    def test_hit_moves_entry_to_most_recently_used(self):
        engine = KleisliEngine()
        for n in range(_COMPILED_CACHE_LIMIT):
            engine.compiled_query(_query(n))
        # Touch the oldest entry, then overflow: the *second*-oldest must go.
        oldest = engine.compiled_query(_query(0))
        engine.compiled_query(_query(_COMPILED_CACHE_LIMIT))
        assert engine.compiled_query(_query(0)) is oldest  # still cached
        hits_before = engine._compiled_queries.hits
        engine.compiled_query(_query(1))  # evicted: recompiles (a miss)
        assert engine._compiled_queries.hits == hits_before

    def test_memoization_still_holds(self):
        engine = KleisliEngine()
        assert engine.compiled_query(_query(7)) is engine.compiled_query(_query(7))


class TestSharedCacheAcrossLoweringTargets:
    def test_eager_and_stream_lowerings_coexist(self):
        """Two target tags, nothing else: the name the e2e tracer still
        patches, ``compiled_stream``, is ``compiled_chunked`` itself."""
        assert KleisliEngine.compiled_stream is KleisliEngine.compiled_chunked
        engine = KleisliEngine()
        term = B.ext("x", B.singleton(B.var("x"), "list"), B.var("XS"),
                     kind="list")
        eager = engine.compiled_query(term)
        streamed = engine.compiled_chunked(term)
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
        first = engine.compiled_chunked(term)
        assert engine.compiled_chunked(term) is first


class TestStatisticsCounters:
    def test_execute_reports_cache_miss_then_hit(self):
        engine = KleisliEngine()
        term = B.prim("add", B.const(1), B.const(2))
        engine.execute(term, optimize=False)
        first = engine.last_eval_statistics
        assert (first.compile_cache_misses, first.compile_cache_hits) == (1, 0)
        engine.execute(term, optimize=False)
        second = engine.last_eval_statistics
        assert (second.compile_cache_misses, second.compile_cache_hits) == (0, 1)

    def test_stream_reports_cache_accounting(self):
        engine = KleisliEngine()
        term = B.ext("x", B.singleton(B.var("x"), "list"), B.var("XS"),
                     kind="list")
        bindings = {"XS": CList([1, 2, 3])}
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
