"""The cost-based adaptive planner: chooser, feedback loop, satellites.

Covers the knob chooser's two contracts (zero knowledge => the historical
defaults, bit-for-bit; knowledge => cost-model choices), the run-time
feedback ledger (record on drained runs only, exact + similar-shape lookup,
re-planning), the cost-adaptive chunk ramp, the ChunkPolicy validation
regression, and the statistics registry's concurrency guarantee.
"""

import threading
import time

import pytest

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.compile import ChunkPolicy, _ChunkRamp, term_fingerprint
from repro.core.optimizer import OptimizerConfig
from repro.core.optimizer.parallel import ParallelExt, make_parallel_rule_set
from repro.core.planner import (
    CardinalityEstimator,
    PhysicalPlan,
    PlanFeedback,
    QueryPlanner,
    shape_fingerprint,
)
from repro.core.values import CList
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.statistics import SourceStatisticsRegistry


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
    def test_initial_above_max_rejected(self):
        with pytest.raises(ValueError, match="initial_chunk"):
            ChunkPolicy(max_chunk=8, initial_chunk=16)

    @pytest.mark.parametrize("knob", ["max_chunk", "remote_max_chunk",
                                      "initial_chunk", "parallel_chunk"])
    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_zero_and_negative_sizes_rejected(self, knob, bad):
        with pytest.raises(ValueError, match=knob):
            ChunkPolicy(**{knob: bad})

    @pytest.mark.parametrize("knob", ["max_chunk", "remote_max_chunk",
                                      "initial_chunk", "parallel_chunk"])
    def test_non_integer_sizes_rejected(self, knob):
        with pytest.raises(ValueError, match=knob):
            ChunkPolicy(**{knob: 2.5})
        with pytest.raises(ValueError, match=knob):
            ChunkPolicy(**{knob: True})

    def test_valid_policies_accepted(self):
        policy = ChunkPolicy(max_chunk=64, remote_max_chunk=8,
                             initial_chunk=4, parallel_chunk=16)
        assert policy.sizes_for() == (4, 64)
        assert policy.adaptive_ramp is False


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
        assert (policy.initial_chunk, policy.max_chunk,
                policy.remote_max_chunk, policy.parallel_chunk,
                policy.adaptive_ramp) == (1, ChunkPolicy.DEFAULT_MAX_CHUNK,
                                          ChunkPolicy.REMOTE_MAX_CHUNK, 1,
                                          False)

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
        assert plan.adaptive_ramp
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

    def test_local_chunk_cap_is_raise_only(self):
        """The output estimate RAISES the local chunk cap for known-huge
        pipelines but never lowers it: the cap also governs the source
        scan's chunking, and a selective query's small output says nothing
        about the source it must chunk through."""
        engine = KleisliEngine()
        engine.register_driver(RangeDriver(), latency=0.0)  # pinned local
        engine.statistics_registry.register_cardinality("ranges", "t", 100)
        plan = engine.plan_for(_chain("ranges", count=100))
        assert not plan.is_default
        assert plan.max_chunk == ChunkPolicy.DEFAULT_MAX_CHUNK  # not lowered
        engine.statistics_registry.register_cardinality("ranges", "t", 50_000)
        big = engine.plan_for(_chain("ranges", count=50_000))
        assert big.max_chunk == QueryPlanner.MAX_LOCAL_CHUNK  # raised

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
# The feedback loop: record on drain, re-plan next compilation
# ---------------------------------------------------------------------------


class TestFeedbackLoop:
    def test_drained_chunked_run_records_and_replans(self):
        engine = KleisliEngine()
        engine.register_driver(RangeDriver())
        expr = _chain(count=32)
        first_plan = engine.plan_for(expr)
        assert first_plan.is_default  # nothing known yet

        assert len(list(engine.stream(expr, optimize=False))) == 32
        observation = engine.plan_feedback.observation(term_fingerprint(expr))
        assert observation is not None
        assert observation.cardinality == 32

        replanned = engine.plan_for(expr)
        assert not replanned.is_default
        assert replanned.source == "feedback"
        assert replanned.adaptive_ramp
        assert replanned.estimated_rows == 32  # the observed cardinality
        assert replanned.max_chunk == ChunkPolicy.DEFAULT_MAX_CHUNK

    def test_abandoned_run_records_nothing(self):
        engine = KleisliEngine()
        engine.register_driver(RangeDriver())
        expr = _chain(count=64)
        stream = engine.stream(expr, optimize=False)
        next(stream)
        stream.close()
        assert engine.plan_feedback.observation(
            term_fingerprint(expr)) is None

    def test_override_policy_runs_do_not_feed_the_ledger(self):
        """A run under an explicit chunk-policy override reflects the
        caller's forced knobs, not the planner's — it must not contaminate
        the observations future planned runs are chosen from."""
        engine = KleisliEngine()
        engine.register_driver(RangeDriver())
        expr = _chain(count=16)
        forced = list(engine.stream(expr, optimize=False,
                                    chunk_policy=ChunkPolicy(max_chunk=2)))
        assert len(forced) == 16
        assert engine.plan_feedback.observation(
            term_fingerprint(expr)) is None

    def test_structurally_similar_query_inherits_the_observation(self):
        feedback = PlanFeedback()
        expr = _chain(count=16)
        probe = feedback.probe(term_fingerprint(expr))
        probe.note_chunk("pipeline", 16, 0.05)
        probe.complete(16)

        # Same shape, different literal: the multiplier constant changed.
        sibling = B.ext("x", B.singleton(B.prim("mul", B.var("x"),
                                                B.const(9)), "list"),
                        _scan(count=16), kind="list")
        assert feedback.observation(term_fingerprint(sibling)) is None
        similar = feedback.similar(term_fingerprint(sibling))
        assert similar is not None and similar.cardinality == 16
        assert shape_fingerprint(term_fingerprint(expr)) == \
            shape_fingerprint(term_fingerprint(sibling))

    def test_parallel_chunk_is_auto_tuned_from_observed_unit_cost(self):
        """A measured cheap body gets chunk-granular prefetch tasks sized
        to amortize task overhead — the knob nothing auto-tuned before."""
        registry = SourceStatisticsRegistry()
        feedback = PlanFeedback()
        planner = QueryPlanner(registry, feedback)
        expr = _chain(count=2048)
        probe = feedback.probe(term_fingerprint(expr))
        probe.note_chunk("pipeline", 2048, 2048 * 2e-6)  # ~2us per element
        probe.complete(2048)
        plan = planner.plan_for(expr)
        assert plan.source == "feedback"
        assert plan.parallel_chunk > 1
        # An expensive body keeps element-granular prefetch.
        slow = _chain(count=100)
        slow_probe = feedback.probe(term_fingerprint(slow))
        slow_probe.note_chunk("pipeline", 100, 100 * 0.01)
        slow_probe.complete(100)
        assert planner.plan_for(slow).parallel_chunk == 1

    def test_ledger_is_lru_bounded(self):
        feedback = PlanFeedback(limit=4)
        for count in range(10):
            probe = feedback.probe(term_fingerprint(_chain(count=count + 1)))
            probe.note_chunk("pipeline", count + 1, 0.01)
            probe.complete(count + 1)
        assert len(feedback) == 4


# ---------------------------------------------------------------------------
# The cost-adaptive chunk ramp
# ---------------------------------------------------------------------------


class TestAdaptiveRamp:
    def test_cheap_chunks_keep_doubling_like_the_blind_ramp(self):
        ramp = _ChunkRamp(1, 64, adaptive=True)
        sizes = [len(chunk) for chunk in ramp.emit_pulled(iter(range(200)))]
        assert sizes[:7] == [1, 2, 4, 8, 16, 32, 64]

    def test_latency_bound_sources_stop_doubling(self):
        """Per-element latency means doubling cannot improve marginal cost:
        the ramp must freeze at a small chunk instead of buffering 1024
        elements of a slow cursor."""

        def slow():
            for i in range(40):
                time.sleep(0.003)
                yield i

        ramp = _ChunkRamp(1, 1024, adaptive=True)
        sizes = [len(chunk) for chunk in ramp.emit_pulled(slow())]
        assert sum(sizes) == 40
        assert max(sizes) <= 8, sizes

    def test_engine_stream_stays_value_correct_under_the_adaptive_ramp(self):
        engine = KleisliEngine()
        engine.register_driver(RangeDriver(), latency=0.0)
        engine.statistics_registry.register_cardinality("ranges", "t", 64)
        expr = _chain(count=64)
        assert engine.plan_for(expr).adaptive_ramp
        assert list(engine.stream(expr, optimize=False)) == \
            [2 * i for i in range(64)]


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
