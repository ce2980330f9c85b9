"""The planner: chooser, satellites.

Covers the knob chooser's two contracts (zero knowledge => the historical
defaults, bit-for-bit; knowledge => choices from the statistics), that
nothing a run drained re-plans the next one, the one chunk ramp (no clock
sizes a chunk, one task per element in a streamed parallel loop), the
ChunkPolicy validation regression, and the statistics registry's
concurrency guarantee.
"""

import threading
import time

import pytest

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.compile import ChunkPolicy, CompiledChunkedStream
from repro.core.nrc.eval import EvalContext
from repro.core.optimizer import OptimizerConfig
from repro.core.optimizer.parallel import ParallelExt, make_parallel_rule_set
from repro.core.planner import (
    CardinalityEstimator,
    PhysicalPlan,
    PlanStore,
    QueryPlanner,
)
from repro.core.values import CList
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.statistics import SourceStatisticsRegistry

from test_chunked_stream import chunk_sizes


class RangeDriver(Driver):
    def __init__(self, name="ranges", count=64):
        super().__init__(name)
        self.count = count

    def _execute(self, request):
        count = int(request.get("count", self.count))

        def cursor():
            for i in range(count):
                yield i

        return cursor()


class BatchRangeDriver(RangeDriver):
    """A driver whose native ``execute_batch`` is one wire round-trip."""

    batch_single_round_trip = True

    def __init__(self, name="batcher", count=4):
        super().__init__(name, count)
        self.batch_calls = 0

    def execute_batch(self, requests):
        self.batch_calls += 1
        return [self._execute(dict(request)) for request in requests]


def _scan(driver="ranges", count=8, table="t"):
    return A.Scan(driver, {"table": table, "count": count}, kind="list")


def _chain(driver="ranges", count=8):
    return B.ext("x", B.singleton(B.prim("mul", B.var("x"), B.const(2)),
                                  "list"),
                 _scan(driver, count), kind="list")


# ---------------------------------------------------------------------------
# Satellite: ChunkPolicy validation
# ---------------------------------------------------------------------------


class TestChunkPolicyValidation:
    @pytest.mark.parametrize("knob", ["max_chunk", "remote_max_chunk"])
    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_zero_and_negative_sizes_rejected(self, knob, bad):
        with pytest.raises(ValueError, match=knob):
            ChunkPolicy(**{knob: bad})

    @pytest.mark.parametrize("knob", ["max_chunk", "remote_max_chunk"])
    def test_non_integer_sizes_rejected(self, knob):
        with pytest.raises(ValueError, match=knob):
            ChunkPolicy(**{knob: 2.5})
        with pytest.raises(ValueError, match=knob):
            ChunkPolicy(**{knob: True})

    def test_valid_policies_accepted(self):
        policy = ChunkPolicy(max_chunk=64, remote_max_chunk=8,
                             is_remote=lambda driver: driver == "far")
        assert policy.max_chunk_for() == 64
        assert policy.max_chunk_for("far") == 8

    @pytest.mark.parametrize("knob", ["initial_chunk", "parallel_chunk",
                                      "adaptive_ramp"])
    def test_the_removed_knobs_are_not_keywords(self, knob):
        """A policy is two maxima and a remoteness test: the first chunk is
        always one element, a parallel task always one source element, and
        no stopwatch switch exists.  A plan sets only the remote maximum
        (the local one is the caller's ``ChunkPolicy(max_chunk=...)``), and
        a store keeps statistics in one snapshot, without decay, a write
        interval, compaction, a durability mode or a settable age."""
        with pytest.raises(TypeError):
            ChunkPolicy(**{knob: 1})
        with pytest.raises(TypeError):
            PhysicalPlan(**{knob: 1})
        with pytest.raises(TypeError):
            PhysicalPlan(max_chunk=4096)
        for removed in ("half_life", "stats_interval", "compact_bytes",
                        "durability", "max_age"):
            with pytest.raises(TypeError):
                PlanStore("never-created", **{removed: 1.0})


# ---------------------------------------------------------------------------
# Satellite: statistics-registry concurrency
# ---------------------------------------------------------------------------


class TestRegistryConcurrency:
    def test_concurrent_samples_registrations_and_reads(self):
        """Worker threads hammer every mutable map while readers iterate:
        no exceptions (dict-resize-under-read) and no lost writes."""
        registry = SourceStatisticsRegistry()
        drivers = [f"driver{i}" for i in range(8)]
        errors = []
        barrier = threading.Barrier(len(drivers) + 2)

        def writer(name, value):
            try:
                barrier.wait()
                for round_number in range(200):
                    registry.record_latency_sample(name, value)
                    registry.register_cardinality(name, f"t{round_number % 5}",
                                                  round_number)
                    registry.register_latency(name + "-declared", value)
            except Exception as error:  # pragma: no cover - the failure mode
                errors.append(error)

        def reader():
            try:
                barrier.wait()
                for _ in range(400):
                    for name in drivers:
                        registry.cardinality(name, "t0")
                        registry.latency(name)
                        registry.is_remote(name)
                        registry.has_latency(name)
            except Exception as error:  # pragma: no cover - the failure mode
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(name, 0.01 * (i + 1)))
                   for i, name in enumerate(drivers)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        for i, name in enumerate(drivers):
            # Every sample had the same value, so the EMA must equal it
            # exactly — a lost or torn update could not produce this.
            assert registry.observed_latency(name) == pytest.approx(0.01 * (i + 1))
            assert registry.has_cardinality(name, "t0")
            assert registry.has_latency(name + "-declared")

    def test_the_epoch_hook_runs_outside_the_lock_on_each_move(self):
        """The hook an engine journals from is called after each change the
        rule sets can read, with the registry unlocked (it reads a
        snapshot), and not for a routine latency sample."""
        registry = SourceStatisticsRegistry()
        moves = []

        def hook():
            assert registry._lock.acquire(blocking=False)
            registry._lock.release()
            moves.append(registry.epoch)

        registry.on_epoch = hook
        registry.register_cardinality("d", "t", 3)
        registry.register_latency("e", 0.0)
        registry.record_latency_sample("d", 0.002)    # routine: no move
        registry.record_latency_sample("d", 0.9)      # crosses the threshold
        registry.set_available("d", False)
        registry.restore({"cardinalities": [["f", "t", 1]]})
        assert moves == [1, 2, 3, 4, 5]

    def test_has_latency_includes_pinned_local_declarations(self):
        registry = SourceStatisticsRegistry()
        assert not registry.has_latency("gdb")
        registry.register_latency("gdb", 0.0)
        assert registry.has_latency("gdb")
        assert not registry.is_remote("gdb")


# ---------------------------------------------------------------------------
# The chooser: zero knowledge => defaults, knowledge => different knobs
# ---------------------------------------------------------------------------


class TestPlannerDefaults:
    def test_zero_statistics_reproduces_default_knobs_exactly(self):
        engine = KleisliEngine()
        engine.register_driver(RangeDriver())
        plan = engine.plan_for(_chain())
        assert plan.is_default
        assert plan == PhysicalPlan.default()
        policy = plan.chunk_policy()
        assert (policy.max_chunk, policy.remote_max_chunk) == \
            (ChunkPolicy.DEFAULT_MAX_CHUNK, ChunkPolicy.REMOTE_MAX_CHUNK)

    def test_compile_time_hooks_stay_silent_without_statistics(self):
        engine = KleisliEngine()
        engine.register_driver(RangeDriver())
        planner = engine.planner
        loop = B.ext("x", _scan(), A.Const(CList(range(10))), kind="list")
        assert planner.parallel_workers(loop) is None

    def test_planning_off_skips_the_planner_entirely(self):
        engine = KleisliEngine(OptimizerConfig(planning=False))
        engine.register_driver(RangeDriver())
        engine.statistics_registry.register_latency("ranges", 0.05)
        plan = engine.plan_for(_chain())
        assert plan.is_default


class TestPlannerWithStatistics:
    def test_registered_latency_and_cardinality_change_the_knobs(self):
        engine = KleisliEngine()
        engine.register_driver(BatchRangeDriver(), latency=0.02)
        engine.statistics_registry.register_cardinality("batcher", "t", 4096)
        plan = engine.plan_for(_chain("batcher", count=4096))
        assert not plan.is_default
        assert plan.source == "statistics"
        # The slow driver batches in one round-trip: the cap rises past the
        # bounded default so round-trip count stops dominating.
        assert plan.remote_max_chunk > ChunkPolicy.REMOTE_MAX_CHUNK
        # The estimate is load-bearing: a fetch whose round-trips already
        # bottom out at a small batch keeps the small (buffering-friendly)
        # cap instead of jumping to the largest candidate.
        engine.statistics_registry.register_cardinality("batcher", "t", 40)
        small = engine.plan_for(_chain("batcher", count=40))
        assert 32 < small.remote_max_chunk < plan.remote_max_chunk

    def test_default_looping_driver_keeps_the_bounded_remote_cap(self):
        """Without a native single-round-trip batch, a bigger batch is the
        same number of round-trips: the cap must stay at the default."""
        engine = KleisliEngine()
        engine.register_driver(RangeDriver(), latency=0.02)
        plan = engine.plan_for(_chain("ranges", count=4096))
        assert not plan.is_default
        assert plan.remote_max_chunk == ChunkPolicy.REMOTE_MAX_CHUNK

    def test_parallel_introduction_is_cost_gated(self):
        """A source known to hold one element cannot benefit from request
        overlap: the planner vetoes the rewrite; unknown sources keep the
        historical behaviour."""
        registry = SourceStatisticsRegistry()
        registry.register_latency("remote", 0.05)
        planner = QueryPlanner(registry)
        body = A.Scan("remote", {"table": "t"}, args={"key": B.var("x")},
                      kind="list")

        def loop(source):
            return B.ext("x", body, source, kind="list")

        gated = make_parallel_rule_set(lambda d: d == "remote", max_workers=4,
                                       workers_for=planner.parallel_workers)
        tiny = gated.apply(loop(A.Const(CList([42]))))
        assert not isinstance(tiny, ParallelExt)
        unknown = gated.apply(loop(B.var("XS")))
        assert isinstance(unknown, ParallelExt)
        assert unknown.max_workers == 4


# ---------------------------------------------------------------------------
# No run re-plans the next: a plan is what the sources declare
# ---------------------------------------------------------------------------


class TestNoRunReplans:
    def test_no_run_replans_the_next(self):
        """A drained run, an abandoned one and one under a forced policy
        leave the next plan as it was: the defaults when nothing is known,
        the statistics plan when something is."""
        engine = KleisliEngine()
        engine.register_driver(RangeDriver())
        expr = _chain(count=32)
        for known in (False, True):
            if known:
                engine.statistics_registry.register_cardinality(
                    "ranges", "t", 32)
            before = engine.plan_for(expr)
            assert before.is_default is not known
            assert len(list(engine.stream(expr, optimize=False))) == 32
            stream = engine.stream(expr, optimize=False)
            next(stream)
            stream.close()
            forced = engine.stream(expr, optimize=False,
                                   chunk_policy=ChunkPolicy(max_chunk=2))
            assert len(list(forced)) == 32
            assert engine.plan_for(expr) == before

    @pytest.mark.parametrize("seconds, moves", [(0.002, False), (0.06, True)])
    def test_an_observed_latency_plans_only_once_it_moves_the_epoch(self, seconds, moves):
        """A sample below the remote threshold (a lazy cursor's dispatch
        that took a loaded box 2 ms) changes neither the plan nor the
        epoch; one that crosses the threshold changes both."""
        engine = KleisliEngine()
        engine.register_driver(RangeDriver())
        expr = _chain(count=32)
        before, epoch = engine.plan_for(expr), engine.epoch
        engine.statistics_registry.record_latency_sample("ranges", seconds)
        assert (engine.plan_for(expr) != before) is moves
        assert (engine.epoch != epoch) is moves


# ---------------------------------------------------------------------------
# One chunk path: a chunk is as big as its source says, no clock sizes it
# ---------------------------------------------------------------------------


class FanDriver(Driver):
    """``{"key": k}`` -> 50 rows after a 2 ms wait: a remote server whose
    body evaluations are few and slow while its output rows are many."""

    def __init__(self, name="fan", rows=50, wait=0.002):
        super().__init__(name)
        self.rows = rows
        self.wait = wait

    def _execute(self, request):
        time.sleep(self.wait)
        return CList([request["key"] * 1000 + i for i in range(self.rows)])


def _remote_loop(count=64):
    body = A.Scan("fan", {}, args={"key": B.var("x")}, kind="list")
    return B.ext("x", body, A.Const(CList(range(count))), kind="list")


def _tasks_per_run(monkeypatch):
    """Record the length of every task a Scheduler window is handed."""
    from repro.kleisli.scheduler import Scheduler

    sizes = []
    prefetch = Scheduler.prefetch

    def recording(self, function, tasks):
        def counted():
            for task in tasks:
                sizes.append(len(task))
                yield task
        return prefetch(self, function, counted())

    monkeypatch.setattr(Scheduler, "prefetch", recording)
    return sizes


class CountingTime:
    """A stand-in for the ``time`` module that counts clock reads."""

    def __init__(self):
        self.reads = 0

    def perf_counter(self):
        self.reads += 1
        return time.perf_counter()


class TestOneChunkPath:
    def test_a_repeat_remote_stream_keeps_one_element_per_task(self, monkeypatch):
        """A plan knows the loop's rows, not its body evaluations: a
        streamed parallel loop submits one task per source element on every
        run, planned from the declared latency each time, and returns the
        unplanned values."""
        unplanned = KleisliEngine(OptimizerConfig(planning=False))
        unplanned.register_driver(FanDriver(), latency=0.002)
        expected = list(unplanned.stream(_remote_loop()))
        assert len(expected) == 64 * 50

        engine = KleisliEngine()
        engine.register_driver(FanDriver(), latency=0.002)
        assert isinstance(engine.compile(_remote_loop()), ParallelExt)
        sizes = _tasks_per_run(monkeypatch)
        for run in range(3):
            del sizes[:]
            assert list(engine.stream(_remote_loop())) == expected
            assert engine.last_plan.source == "statistics"
            assert sizes == [1] * 64, (run, sizes)

    def test_an_unobserved_planned_stream_reads_no_clock(self, monkeypatch):
        """A planned stream needs no per-chunk time: with no profile and no
        hub the chunked lowering never reads the clock.  A profile does, and
        still names the pipeline and the batched-scan stage."""
        from repro.core.nrc import compile as compile_module

        engine = KleisliEngine()
        engine.register_driver(RangeDriver(), latency=0.0)  # pinned local
        engine.statistics_registry.register_cardinality("ranges", "t", 64)
        body = A.Scan("ranges", {"table": "t"}, args={"count": B.var("x")},
                      kind="list")
        expr = B.ext("x", body, A.Const(CList(range(1, 33))), kind="list")
        expected = [i for n in range(1, 33) for i in range(n)]
        clock = CountingTime()
        monkeypatch.setattr(compile_module, "time", clock)

        assert list(engine.stream(expr)) == expected
        assert not engine.last_plan.is_default
        assert clock.reads == 0

        assert list(engine.stream(expr, profile=True)) == expected
        assert clock.reads > 0
        assert {"pipeline", "scan:ranges"} <= set(engine.last_profile.stages)

    def test_a_slow_undeclared_cursor_ramps_like_any_local_source(self):
        """What is given up: nothing times a cursor, so one that is slow per
        element but declares no latency ramps to the local maximum; a
        declared latency makes it remote and caps its chunks."""

        class SlowCursor(RangeDriver):
            def _execute(self, request):
                for i in super()._execute(request):
                    time.sleep(0.0002)
                    yield i

        expr = B.ext("x", B.singleton(B.var("x"), "list"), _scan(count=40),
                     kind="list")
        for latency, sizes in ((None, [1, 2, 4, 8, 16, 9]),
                               (0.002, [1, 2, 4, 8, 8, 8, 8, 1])):
            engine = KleisliEngine()
            engine.register_driver(SlowCursor(), latency=latency)
            query = engine.compiled_chunked(expr)
            context = EvalContext(driver_executor=engine.driver_executor)
            context.chunk_policy = ChunkPolicy(
                remote_max_chunk=8,
                is_remote=engine.statistics_registry.is_remote)
            assert chunk_sizes(query, context) == sizes

    def test_a_planned_bare_stream_takes_the_bare_pump(self):
        """A planned stream with no profile, hub, budget or token carries no
        chunk sink, so the pump takes its bare loop and counts nothing."""
        engine = KleisliEngine()
        engine.register_driver(RangeDriver())
        engine.statistics_registry.register_cardinality("ranges", "t", 16)
        stream = engine.stream(_chain(count=16), optimize=False)
        assert not engine.last_plan.is_default
        assert stream.gi_code is CompiledChunkedStream._pump.__code__
        assert stream.gi_frame.f_locals["context"].chunk_sink is None
        assert next(stream) == 0
        pump = stream.gi_frame.f_locals
        assert (pump["note"], pump["token"], pump["budget"]) == \
            (None, None, None)
        assert list(stream) == [2 * i for i in range(1, 16)]


# ---------------------------------------------------------------------------
# Estimator spot checks (the hypothesis suite covers the invariants)
# ---------------------------------------------------------------------------


class TestEstimator:
    def test_scan_and_const_leaves(self):
        registry = SourceStatisticsRegistry()
        registry.register_cardinality("gdb", "locus", 700)
        estimator = CardinalityEstimator(registry)
        assert estimator.estimate(
            A.Scan("gdb", {"table": "locus"}, kind="set")) == 700
        assert estimator.estimate(A.Const(CList(range(9)))) == 9
        assert estimator.estimate(
            A.Scan("nobody", {"table": "x"}, kind="set")) == \
            SourceStatisticsRegistry.DEFAULT_CARDINALITY

    def test_indexed_join_estimates_one_match_per_probe(self):
        registry = SourceStatisticsRegistry()
        estimator = CardinalityEstimator(registry)
        from repro.core.optimizer.caching import make_caching_rule_set

        join = make_caching_rule_set().apply(B.ext("o", B.ext("i", B.if_then_else(
            B.eq(B.var("i"), B.var("o")), B.singleton(B.var("o"), "list"), B.empty("list")),
            A.Const(CList(range(50))), "list"), A.Const(CList(range(100))), "list"))
        assert "probe(cached(index(" in join.pretty()
        assert estimator.estimate(join) == pytest.approx(100.0)
