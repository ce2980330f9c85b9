"""The chunked (morsel-at-a-time) lowering: policy, ramp, batched fetch.

Element-sequence parity with ``execute`` is pinned by the differential
harness (``test_stream_differential``); this suite covers the chunk-specific
machinery — the :class:`~repro.core.nrc.compile.ChunkPolicy` ramp, the
remote-source chunk cap, eager sections for nodes with no chunk lowering,
and the ``Driver.execute_batch`` batched-fetch extension point.
"""

import pytest

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.compile import ChunkPolicy
from repro.core.nrc.eval import EvalContext, Environment
from repro.core.values import CList, CSet, iter_collection
from repro.kleisli.drivers.base import Driver
from repro.kleisli.drivers.flatfile import FlatFileDriver
from repro.kleisli.drivers.relational import RelationalDriver
from repro.kleisli.engine import KleisliEngine
from repro.relational.database import Database


class PipelineChunks:
    """A chunk sink, as a profile's: keeps the size of each chunk the pump
    hands on (its ``pipeline`` stage)."""

    def __init__(self):
        self.sizes = []

    def note_chunk(self, stage, rows, seconds):
        if stage == "pipeline":
            self.sizes.append(rows)


def chunk_sizes(query, context):
    """The sizes of the chunks ``query`` pumps on ``context``, read through
    the context's chunk sink while its element stream is drained."""
    sink = context.chunk_sink = PipelineChunks()
    elements = list(query(Environment(), context))
    assert sum(sink.sizes) == len(elements)
    return sink.sizes


class RangeDriver(Driver):
    def __init__(self, name="ranges"):
        super().__init__(name)
        self.batch_calls = []

    def _execute(self, request):
        base = int(request.get("base", 0))
        count = int(request.get("count", 5))

        def cursor():
            for i in range(base, base + count):
                yield i

        return cursor()

    def execute_batch(self, requests):
        self.batch_calls.append(len(requests))
        return super().execute_batch(requests)


def _engine():
    engine = KleisliEngine()
    engine.register_driver(RangeDriver())
    return engine


def _scan(base=0, count=5):
    request = {"table": "t", "count": count}
    args = {}
    if isinstance(base, A.Expr):
        args["base"] = base
    else:
        request["base"] = base
    return A.Scan("ranges", request, args=args, kind="list")


class TestChunkPolicy:
    def test_sizes_ramp_from_initial_to_max(self):
        policy = ChunkPolicy(max_chunk=128)
        assert policy.max_chunk_for() == 128
        assert policy.max_chunk_for("anything") == 128  # no is_remote wired

    def test_remote_drivers_keep_small_chunks(self):
        policy = ChunkPolicy(max_chunk=1024, remote_max_chunk=16,
                             is_remote=lambda name: name == "slow")
        assert policy.max_chunk_for("slow") == 16
        assert policy.max_chunk_for("fast") == 1024

    def test_engine_policy_follows_the_statistics_registry(self):
        engine = _engine()
        engine.statistics_registry.register_latency("ranges", 0.08)
        policy = engine.chunk_policy()
        assert policy.max_chunk_for("ranges") == ChunkPolicy.REMOTE_MAX_CHUNK
        assert policy.max_chunk_for("other") == ChunkPolicy.DEFAULT_MAX_CHUNK

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            ChunkPolicy(max_chunk=0)


class TestRampingChunks:
    def test_chunk_sizes_double_from_one(self):
        """Observed through the run's chunk sink: 1, 2, 4, ..."""
        engine = _engine()
        expr = B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=40),
                     kind="list")
        query = engine.compiled_chunked(expr)
        context = EvalContext(driver_executor=engine.driver_executor)
        sizes = chunk_sizes(query, context)
        assert sizes == [1, 2, 4, 8, 16, 9]
        assert sum(sizes) == 40

    def test_remote_sources_cap_the_ramp(self):
        engine = _engine()
        expr = B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=40),
                     kind="list")
        query = engine.compiled_chunked(expr)
        context = EvalContext(driver_executor=engine.driver_executor)
        context.chunk_policy = ChunkPolicy(remote_max_chunk=4,
                                           is_remote=lambda name: True)
        sizes = chunk_sizes(query, context)
        assert max(sizes) == 4
        assert sum(sizes) == 40

    def test_policy_is_runtime_not_baked_into_the_cache(self):
        """One cached pipeline serves every policy (the chunk size is read
        from the context, so the compile-cache key stays the fingerprint)."""
        engine = _engine()
        expr = B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=20),
                     kind="list")
        small = list(engine.stream(expr, optimize=False,
                                   chunk_policy=ChunkPolicy(max_chunk=2)))
        # Another policy lowers the same key a second time, which keeps it.
        middle = list(engine.stream(expr, optimize=False,
                                    chunk_policy=ChunkPolicy(max_chunk=7)))
        hits_before = engine._compiled_queries.hits
        large = list(engine.stream(expr, optimize=False,
                                   chunk_policy=ChunkPolicy(max_chunk=512)))
        assert small == middle == large == list(range(20))
        assert engine._compiled_queries.hits == hits_before + 1

    def test_max_chunk_one_is_the_element_at_a_time_stream(self):
        """Chunks of one run through the one streaming lowering: every
        chunk holds a single element and nothing else enters the LRU."""
        engine = _engine()
        expr = B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=3),
                     kind="list")
        policy = ChunkPolicy(max_chunk=1)
        for _ in range(2):  # the second lowering is kept
            assert list(engine.stream(expr, optimize=False,
                                      chunk_policy=policy)) == [0, 1, 2]
        assert {key[0] for key in engine._compiled_queries._entries} == {"chunked"}
        context = EvalContext(driver_executor=engine.driver_executor)
        context.chunk_policy = policy
        context.chunk_sink = sink = PipelineChunks()
        stream = engine.compiled_chunked(expr)(Environment(), context)
        assert list(stream) == [0, 1, 2]
        assert sink.sizes == [1, 1, 1]


class TestEagerSections:
    def test_fold_still_streams_as_an_eager_section(self):
        """A node without a chunk lowering keeps the eager section
        semantics inside a chunked run."""
        engine = _engine()
        plus = B.lam("a", B.lam("b", B.prim("add", B.var("a"), B.var("b"))))
        fold = B.fold(plus, B.const(0), A.Const(CList([1, 2, 3])))
        streamed = list(engine.stream(fold, optimize=False))
        assert streamed == [6]
        assert engine.last_eval_statistics.stream_fallbacks >= 1

    def test_both_local_join_plans_are_chunk_native(self):
        """The blocked join (a loop over a hoisted inner side) and the
        indexed join (a loop over a probe) are chunk stages like any other
        loop: no eager section, nothing counted as a fallback."""
        from repro.core.optimizer.caching import make_caching_rule_set

        def loop(conditions, inner):
            body = B.singleton(B.var("o"), "list")
            for condition in conditions:
                body = B.if_then_else(condition, body, B.empty("list"))
            return B.ext("o", B.ext("i", body, inner, "list"), B.var("OUTER"), "list")

        blocked = loop([], A.Cached(B.ext("s", B.singleton(B.var("s"), "list"),
                                          B.var("INNER"), "list")))
        indexed = make_caching_rule_set().apply(
            loop([B.eq(B.var("i"), B.prim("mul", B.var("o"), B.const(10)))], B.var("INNER")))
        assert "probe(cached(index(" in indexed.pretty()
        bindings = {"OUTER": CList([1, 2, 3]), "INNER": CList([10])}
        for expr, expected in ((blocked, [1, 2, 3]), (indexed, [1])):
            engine = KleisliEngine()
            assert engine.compiled_chunked(expr).fully_chunked
            streamed = list(engine.stream(expr, bindings, optimize=False))
            assert streamed == expected
            assert engine.last_eval_statistics.stream_fallbacks == 0


class TestBatchedBodyScans:
    def test_body_scans_are_batched_per_chunk(self):
        """An Ext whose body is a Scan issues ONE execute_batch call per
        source chunk, with parity on values and scan accounting."""
        engine = _engine()
        driver = engine.drivers["ranges"]
        expr = B.ext("x",
                     _scan(count=2, base=B.var("x")),
                     A.Const(CList(range(7))), kind="list")
        chunked = list(engine.stream(expr, optimize=False))
        chunked_stats = engine.last_eval_statistics
        # Ramp 1, 2, 4 over 7 source elements -> one batch per chunk.
        assert driver.batch_calls == [1, 2, 4]
        executed = list(iter_collection(engine.execute(expr, optimize=False)))
        executed_stats = engine.last_eval_statistics
        assert chunked == executed
        assert chunked_stats.scan_requests == executed_stats.scan_requests == 7
        assert chunked_stats.elements_fetched == executed_stats.elements_fetched

    def test_remote_scan_drivers_cap_the_request_batch(self):
        """The batch size is bounded by the SCAN driver's policy maximum,
        not the source's chunk ramp: a remote body-scan driver never sees
        more than remote_max_chunk requests per execute_batch call, however
        large the local source's chunks grow (regression: one batch used to
        block on a full source chunk's worth of round-trips)."""
        engine = _engine()
        driver = engine.drivers["ranges"]
        expr = B.ext("x",
                     _scan(count=1, base=B.var("x")),
                     A.Const(CList(range(30))), kind="list")
        policy = ChunkPolicy(max_chunk=1024, remote_max_chunk=4,
                             is_remote=lambda name: name == "ranges")
        chunked = list(engine.stream(expr, optimize=False,
                                     chunk_policy=policy))
        assert chunked == list(range(30))
        assert max(driver.batch_calls) <= 4, driver.batch_calls
        assert sum(driver.batch_calls) == 30

    def test_default_looping_batches_feed_accurate_latency_samples(self):
        """A driver with the DEFAULT execute_batch dispatches per request,
        so every round-trip feeds the EMA and a slow undeclared driver
        reached only through batched body scans is still promoted to
        remote (regression: batched dispatch used to starve observation)."""
        import time as _time

        class SlowDriver(Driver):
            def __init__(self):
                super().__init__("slow")

            def _execute(self, request):
                _time.sleep(0.06)
                return CList([1])

        engine = KleisliEngine()
        engine.register_driver(SlowDriver())
        engine.driver_executor_batch("slow", [{"a": i} for i in range(2)])
        assert engine.statistics_registry.observed_latency("slow") > 0.05
        assert engine.statistics_registry.is_remote("slow")

    def test_native_batch_dispatch_does_not_pollute_the_latency_ema(self):
        """A NATIVE batch is one wire call; no per-request decomposition is
        sound, so it must not feed the EMA (regression: a mean-per-request
        sample from native batches decayed remote drivers below the
        promotion threshold as batches grew)."""

        class NativeBatchDriver(Driver):
            def __init__(self):
                super().__init__("nativebatch")

            def _execute(self, request):
                return CList([1])

            def execute_batch(self, requests):
                # One (fast) wire call for the whole batch.
                return [self._execute(dict(request)) for request in requests]

        engine = KleisliEngine()
        engine.register_driver(NativeBatchDriver())
        # A genuinely slow per-request history promotes the driver...
        engine.statistics_registry.record_latency_sample("nativebatch", 0.2)
        assert engine.statistics_registry.is_remote("nativebatch")
        # ...and native batched dispatch must not decay it.
        engine.driver_executor_batch("nativebatch",
                                     [{"a": i} for i in range(8)])
        assert engine.statistics_registry.observed_latency("nativebatch") == 0.2
        assert engine.statistics_registry.is_remote("nativebatch")

    def test_empty_batch_is_a_no_op(self):
        engine = _engine()
        assert engine.driver_executor_batch("ranges", []) == []


class TestDriverExecuteBatch:
    def test_default_loops_over_execute(self):
        driver = RangeDriver()
        results = Driver.execute_batch(driver, [
            {"base": 0, "count": 2}, {"base": 10, "count": 2}])
        assert [list(cursor) for cursor in results] == [[0, 1], [10, 11]]
        assert driver.request_count == 2

    def test_relational_batch_is_one_remote_round_trip(self):
        database = Database()
        table = database.create_table_from_spec("t", {"id": "int"})
        for i in range(4):
            table.insert({"id": i})
        driver = RelationalDriver.with_latency("rel", database, latency=0.0)
        requests = [{"table": "t", "where": [{"column": "id", "op": "=",
                                              "value": i}]}
                    for i in range(3)]
        results = driver.execute_batch(requests)
        assert [sorted(record.project("id") for record in result)
                for result in results] == [[0], [1], [2]]
        # One wire round-trip (call log entry) for the whole batch; three
        # separate execute() calls would have logged three.
        assert driver.remote.request_count == 1
        assert driver.request_count == 3

    def test_relational_batch_matches_per_request_results(self):
        database = Database()
        table = database.create_table_from_spec("t", {"id": "int",
                                                      "name": "string"})
        for i in range(5):
            table.insert({"id": i, "name": f"n{i}"})
        driver = RelationalDriver.with_latency("rel", database, latency=0.0)
        requests = [{"table": "t"}, {"query": "select id from t where id = 2"}]
        batched = driver.execute_batch(requests)
        singly = [driver.execute(request) for request in requests]
        for batch_result, single_result in zip(batched, singly):
            assert CSet(iter_collection(batch_result)) == \
                CSet(iter_collection(single_result))

    def test_flatfile_batch_reads_each_file_once(self, tmp_path):
        path = tmp_path / "seqs.fa"
        path.write_text(">a\nACGT\n>b\nGGCC\n")
        reads = []

        class CountingFlatFile(FlatFileDriver):
            def _load_text(self, request):
                if "text" not in request:  # an actual file read
                    reads.append(request.get("file"))
                return super()._load_text(request)

        driver = CountingFlatFile(name="Files")
        requests = [{"format": "fasta", "file": str(path)}] * 3
        results = driver.execute_batch(requests)
        assert len(results) == 3
        assert len(reads) == 1, "batch read the same file repeatedly"
        assert driver.request_count == 3
        for result in results:
            names = sorted(record.project("identifier")
                           for record in iter_collection(result))
            assert names == ["a", "b"]


class TestSetKindChunks:
    def test_cross_chunk_dedup_matches_eager_sets(self):
        """The seen-set persists across chunk boundaries: duplicates in a
        LATER chunk of a set-kind stage are suppressed."""
        engine = KleisliEngine()
        expr = B.ext("x", B.singleton(B.prim("mod", B.var("x"), B.const(3))),
                     A.Const(CSet(range(11))))
        streamed = list(engine.stream(expr, optimize=False,
                                      chunk_policy=ChunkPolicy(max_chunk=2)))
        executed = list(iter_collection(engine.execute(expr, optimize=False)))
        assert streamed == executed == [0, 1, 2]

    def test_nested_set_unions_carry_one_seen_set(self):
        """The chunked typed union unwraps operand dedup stages: nested set
        unions still match eager order."""
        engine = KleisliEngine()
        expr = A.Union(
            A.Union(
                B.ext("x", B.singleton(B.prim("mod", B.var("x"), B.const(3))),
                      A.Const(CSet(range(7)))),
                B.ext("x", B.singleton(B.prim("mod", B.var("x"), B.const(4))),
                      A.Const(CSet(range(6)))),
                "set"),
            B.ext("x", B.singleton(B.prim("mod", B.var("x"), B.const(5))),
                  A.Const(CSet(range(9)))),
            "set")
        streamed = list(engine.stream(expr, optimize=False,
                                      chunk_policy=ChunkPolicy(max_chunk=2)))
        executed = list(iter_collection(engine.execute(expr, optimize=False)))
        assert streamed == executed


class TestReviewRegressions:
    """Pins for reviewed edge cases of the batched/chunked machinery."""

    def test_native_per_request_batches_still_feed_the_ema(self):
        """A native execute_batch that does per-request work (flatfile-style,
        batch_single_round_trip=False) records the mean per-request cost, so
        a slow driver of that shape is still promoted to remote."""
        import time as _time

        class CachedBatchDriver(Driver):
            def __init__(self):
                super().__init__("cachedbatch")

            def _execute(self, request):
                _time.sleep(0.06)
                return CList([1])

            def execute_batch(self, requests):
                # Native, but still one unit of work per request.
                return [self.execute(dict(request)) for request in requests]

        engine = KleisliEngine()
        engine.register_driver(CachedBatchDriver())
        engine.driver_executor_batch("cachedbatch", [{"a": 1}, {"a": 2}])
        assert engine.statistics_registry.observed_latency("cachedbatch") > 0.05
        assert engine.statistics_registry.is_remote("cachedbatch")

    def test_parallel_ext_rechunk_respects_remote_body_drivers(self):
        """The chunked ParallelExt's output re-chunk uses the subtree's
        conservative driver bounds: a remote body scan caps chunk sizes at
        remote_max_chunk, like every other re-chunk point."""
        from repro.core.optimizer.parallel import ParallelExt

        engine = _engine()
        pexpr = ParallelExt("x",
                            _scan(count=3, base=B.var("x")),
                            A.Const(CList(range(40))), kind="list",
                            max_workers=3)
        query = engine.compiled_chunked(pexpr)
        context = EvalContext(
            driver_executor=engine.driver_executor,
            driver_executor_batch=engine.driver_executor_batch)
        context.chunk_policy = ChunkPolicy(
            max_chunk=1024, remote_max_chunk=4,
            is_remote=lambda name: name == "ranges")
        sizes = chunk_sizes(query, context)
        assert sum(sizes) == 120
        assert max(sizes) <= 4, sizes

    def test_scan_batch_ramp_continues_across_results(self):
        """The batched-scan stage's chunk ramp does not restart at 1 for
        every scan result: after warming up, full-size chunks keep coming."""
        engine = _engine()
        expr = B.ext("x",
                     _scan(count=8, base=B.var("x")),
                     A.Const(CList(range(20))), kind="list")
        query = engine.compiled_chunked(expr)
        context = EvalContext(
            driver_executor=engine.driver_executor,
            driver_executor_batch=engine.driver_executor_batch)
        sizes = chunk_sizes(query, context)
        assert sum(sizes) == 160
        assert sizes[0] == 1  # TTFR: the very first chunk is one element
        # A per-result restart would emit 20 x [1, 2, 4, 1] = 80 chunks;
        # the continuing ramp reaches the 8-element result size and stays.
        assert len(sizes) <= 30, sizes
        assert sizes[-1] == 8, sizes


class TestOneStreamingLowering:
    """The chunk registry is the only streaming registry, and the element-
    at-a-time stream is a policy of it, not a second code path."""

    def test_every_collection_producer_with_an_eager_compiler_is_chunkable(self):
        from repro.core.nrc.compile import chunkable_node_types, supported_node_types
        import repro.core.optimizer.parallel  # noqa: F401 - registers ParallelExt

        producers = {"Ext", "Union", "Scan", "Let", "IfThenElse",
                     "Singleton", "Empty", "Cached", "ParallelExt"}
        assert producers <= set(supported_node_types())
        assert producers <= set(chunkable_node_types())
        assert "Join" not in supported_node_types() + chunkable_node_types()

    def test_an_unregistered_node_type_is_refused_at_lowering(self):
        """Dispatch is by exact type and there is no interpreter hand-off:
        an ``Ext`` subclass nobody registered is an error naming it on
        every compiled entry point, before any driver is asked."""
        from repro.core.errors import EvaluationError
        from repro.core.nrc.compile import compile_chunked, compile_term

        class Mystery(A.Ext):
            pass

        source = Mystery("y", B.singleton(B.var("y"), "list"), _scan(count=3),
                         kind="list")
        expr = B.ext("x", B.singleton(B.prim("mul", B.var("x"), B.const(2)), "list"),
                     source, kind="list")
        engine = _engine()
        for lower in (compile_term, compile_chunked, engine.compiled_chunked,
                      lambda e: engine.execute(e, optimize=False),
                      lambda e: engine.stream(e, optimize=False)):
            with pytest.raises(EvaluationError, match="Mystery"):
                lower(expr)
        assert engine.drivers["ranges"].request_count == 0

    def test_the_switches_and_the_second_lowering_are_gone(self):
        import inspect

        from repro.core.nrc import compile as lowering

        assert "chunked" not in inspect.signature(KleisliEngine.stream).parameters
        assert "stream_chunking" not in \
            inspect.signature(KleisliEngine.__init__).parameters
        for name in ("CompiledStream", "compile_stream", "register_stream_compiler",
                     "streamable_node_types"):
            assert name not in lowering.__all__
            assert not hasattr(lowering, name)
