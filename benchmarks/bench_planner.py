"""E11 — cost-based planner vs fixed physical knobs.

The planner subsystem replaces hand-set constants with per-query
cost-model choices; this benchmark measures each against the
fixed-knob ablation (``OptimizerConfig(planning=False)`` — exactly the
pre-planner engine) on the workload it targets:

* **local** — a shaping chain over a registered local source: the planner
  sizes the chunk ramp's maximum to the estimated output; the requirement
  here is parity — the planner must never lose;
* **fake_remote** — a scan-batched loop against a slow driver whose native
  ``execute_batch`` is one wire round-trip: the planner raises
  ``remote_max_chunk`` so round-trip count stops dominating (the fixed cap
  of 32 pays ~8x the round-trips);
* **remote_loop** — a streamed parallel loop of 64 requests to a declared
  2 ms server that answers each with 50 rows, re-planned from feedback
  after its warm-up run: parity again.  Feedback knows the loop's output
  rows, not its body evaluations, so nothing it records may coarsen the
  loop's one-element tasks.

``BENCH_planner.json`` records every section (planned/fixed times, the
chosen plans, speedups).  CI gates on ``BENCH_PLANNER_FACTOR`` (planned
must stay >= that fraction of fixed-knob throughput on EVERY section — the
planner never loses) and ``BENCH_PLANNER_WIN`` (the fake-remote section
must beat fixed knobs by at least that factor).
"""

import os
import time

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.optimizer import OptimizerConfig
from repro.core.values import CList
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import KleisliEngine

from conftest import report, update_summary

#: The planner must never lose: planned >= FACTOR x fixed on every section.
PLANNER_FACTOR = float(os.environ.get("BENCH_PLANNER_FACTOR", "0.9"))
#: And must win where it claims to: the fake-remote section.
PLANNER_WIN = float(os.environ.get("BENCH_PLANNER_WIN", "1.2"))

REPS = 3


def _update(section, data):
    update_summary("BENCH_planner.json", section, data)


def _fixed_config(**overrides):
    return OptimizerConfig(planning=False, **overrides)


def _drain_stream(engine, expr, bindings=None, optimize=False):
    started = time.perf_counter()
    count = sum(1 for _ in engine.stream(expr, bindings, optimize=optimize))
    return count, time.perf_counter() - started


# ---------------------------------------------------------------------------
# Section 1: local shaping chain (parity — the planner must never lose)
# ---------------------------------------------------------------------------

LOCAL_ROWS = 30_000


class LocalRowsDriver(Driver):
    """A local table of LOCAL_ROWS integers with a registered cardinality."""

    def __init__(self, name="localrows"):
        super().__init__(name)

    def collection_names(self):
        return ["rows"]

    def cardinality(self, collection):
        return LOCAL_ROWS if collection == "rows" else None

    def _execute(self, request):
        def cursor():
            for i in range(LOCAL_ROWS):
                yield i

        return cursor()


def _local_chain():
    scan = A.Scan("localrows", {"table": "rows"}, kind="list")
    filtered = B.ext("v", B.if_then_else(B.prim("ge", B.prim("mod", B.var("v"),
                                                             B.const(1000)),
                                                 B.const(10)),
                                         B.singleton(B.var("v"), "list"),
                                         B.empty("list")),
                     scan, kind="list")
    return B.ext("w", B.singleton(B.prim("add", B.var("w"), B.const(7)),
                                  "list"),
                 filtered, kind="list")


def test_local_section():
    expr = _local_chain()

    planned_engine = KleisliEngine()
    planned_engine.register_driver(LocalRowsDriver())
    fixed_engine = KleisliEngine(_fixed_config())
    fixed_engine.register_driver(LocalRowsDriver())

    # Interleave the two engines (and take min-of-7): this section is a
    # pure parity check and the drain is only ~30 ms, so uncorrelated
    # machine noise would otherwise dominate the ratio.
    planned_time = fixed_time = float("inf")
    planned_count = fixed_count = None
    for _ in range(7):
        count, elapsed = _drain_stream(planned_engine, expr)
        planned_count = count if planned_count is None else planned_count
        assert count == planned_count
        planned_time = min(planned_time, elapsed)
        count, elapsed = _drain_stream(fixed_engine, expr)
        fixed_count = count if fixed_count is None else fixed_count
        assert count == fixed_count
        fixed_time = min(fixed_time, elapsed)
    assert planned_count == fixed_count > 0

    plan = planned_engine.last_plan
    assert not plan.is_default  # the registered cardinality informed it
    assert fixed_engine.last_plan.is_default

    speedup = fixed_time / planned_time
    summary = {
        "rows": LOCAL_ROWS,
        "result_rows": planned_count,
        "planned_s": planned_time,
        "fixed_s": fixed_time,
        "planned_vs_fixed_speedup": speedup,
        "planned_plan": plan.describe(),
    }
    report("E11a: local shaping chain (parity requirement)",
           [["fixed knobs", f"{fixed_time * 1000:.1f} ms", ""],
            ["planned", f"{planned_time * 1000:.1f} ms",
             f"{speedup:.2f}x fixed"]],
           ["engine", "full drain", "notes"])
    _update("local", summary)

    # The never-lose gate: parity or better on the planner's home turf.
    assert speedup >= PLANNER_FACTOR, summary


# ---------------------------------------------------------------------------
# Section 2: fake-remote batched scans (round-trip count dominates)
# ---------------------------------------------------------------------------

REMOTE_IDS = 512
REMOTE_LATENCY = 0.01


class BatchRemoteDriver(Driver):
    """A slow remote lookup whose native batch is ONE wire round-trip."""

    batch_single_round_trip = True

    def __init__(self, name="remote", latency=REMOTE_LATENCY):
        super().__init__(name)
        self.latency = latency
        self.round_trips = 0

    def collection_names(self):
        return ["items"]

    def cardinality(self, collection):
        return 1 if collection == "items" else None

    def _lookup(self, request):
        return CList([int(request.get("key", 0)) * 10])

    def _execute(self, request):
        self.round_trips += 1
        time.sleep(self.latency)
        return self._lookup(request)

    def execute_batch(self, requests):
        self.round_trips += 1
        time.sleep(self.latency)  # one wire call for the whole batch
        return [self._lookup(dict(request)) for request in requests]


def _remote_loop():
    scan = A.Scan("remote", {"table": "items"},
                  args={"key": B.var("x")}, kind="list")
    return B.ext("x", scan, A.Const(CList(range(REMOTE_IDS))), kind="list")


def test_fake_remote_section():
    expr = _remote_loop()

    def run(engine_factory):
        times = []
        trips = None
        count = None
        for _ in range(REPS):
            engine, driver = engine_factory()
            this_count, elapsed = _drain_stream(engine, expr)
            count = this_count if count is None else count
            assert this_count == count
            times.append(elapsed)
            trips = driver.round_trips
        return count, min(times), trips

    def planned_factory():
        engine = KleisliEngine()
        driver = engine.register_driver(BatchRemoteDriver(),
                                        latency=REMOTE_LATENCY)
        return engine, driver

    def fixed_factory():
        engine = KleisliEngine(_fixed_config())
        driver = engine.register_driver(BatchRemoteDriver(),
                                        latency=REMOTE_LATENCY)
        return engine, driver

    planned_count, planned_time, planned_trips = run(planned_factory)
    fixed_count, fixed_time, fixed_trips = run(fixed_factory)
    assert planned_count == fixed_count == REMOTE_IDS

    # The acceptance claim: the planner picked DIFFERENT knobs here.
    probe_engine, _ = planned_factory()
    plan = probe_engine.plan_for(expr)
    assert not plan.is_default
    assert plan.remote_max_chunk > 32, plan.describe()
    assert planned_trips < fixed_trips

    speedup = fixed_time / planned_time
    summary = {
        "ids": REMOTE_IDS,
        "round_trip_latency_s": REMOTE_LATENCY,
        "planned_s": planned_time,
        "fixed_s": fixed_time,
        "planned_round_trips": planned_trips,
        "fixed_round_trips": fixed_trips,
        "planned_vs_fixed_speedup": speedup,
        "planned_plan": plan.describe(),
    }
    report(f"E11b: fake-remote batched scans, {REMOTE_IDS} lookups at "
           f"{REMOTE_LATENCY * 1000:.0f} ms/round-trip",
           [["fixed knobs (cap 32)", f"{fixed_time * 1000:.0f} ms",
             f"{fixed_trips} round-trips"],
            ["planned", f"{planned_time * 1000:.0f} ms",
             f"{planned_trips} round-trips, {speedup:.2f}x fixed"]],
           ["engine", "full drain", "notes"])
    _update("fake_remote", summary)

    assert speedup >= PLANNER_WIN, summary


# ---------------------------------------------------------------------------
# Section 3: a streamed remote loop (few body evaluations, many output rows)
# ---------------------------------------------------------------------------

LOOP_KEYS = 64
LOOP_ROWS = 50
LOOP_LATENCY = 0.002


class FanOutDriver(Driver):
    """A declared-remote server: each key waits LOOP_LATENCY, then answers
    with LOOP_ROWS rows."""

    def __init__(self, name="fanout"):
        super().__init__(name)

    def _execute(self, request):
        time.sleep(LOOP_LATENCY)
        key = int(request["key"])
        return CList([key * LOOP_ROWS + i for i in range(LOOP_ROWS)])


def _fan_out_loop():
    scan = A.Scan("fanout", {"table": "rows"},
                  args={"key": B.var("x")}, kind="list")
    return B.ext("x", scan, A.Const(CList(range(LOOP_KEYS))), kind="list")


def test_remote_loop_section():
    expr = _fan_out_loop()

    def engine_for(config):
        engine = KleisliEngine(config)
        engine.register_driver(FanOutDriver(), latency=LOOP_LATENCY)
        return engine

    planned_engine = engine_for(None)
    fixed_engine = engine_for(_fixed_config())
    # The optimizer makes the loop a ParallelExt; one warm-up stream gives
    # the planner its feedback, then the two engines alternate (min-of-7).
    for engine in (planned_engine, fixed_engine):
        _drain_stream(engine, expr, optimize=True)
    planned_time = fixed_time = float("inf")
    for _ in range(7):
        count, elapsed = _drain_stream(planned_engine, expr, optimize=True)
        assert count == LOOP_KEYS * LOOP_ROWS
        planned_time = min(planned_time, elapsed)
        count, elapsed = _drain_stream(fixed_engine, expr, optimize=True)
        assert count == LOOP_KEYS * LOOP_ROWS
        fixed_time = min(fixed_time, elapsed)

    plan = planned_engine.last_plan
    assert plan.source == "feedback"
    assert fixed_engine.last_plan.is_default

    speedup = fixed_time / planned_time
    summary = {
        "keys": LOOP_KEYS,
        "rows_per_key": LOOP_ROWS,
        "round_trip_latency_s": LOOP_LATENCY,
        "planned_s": planned_time,
        "fixed_s": fixed_time,
        "planned_vs_fixed_speedup": speedup,
        "planned_plan": plan.describe(),
        "fixed_plan": fixed_engine.last_plan.describe(),
    }
    report(f"E11c: streamed remote loop, {LOOP_KEYS} requests x "
           f"{LOOP_ROWS} rows at {LOOP_LATENCY * 1000:.0f} ms/request",
           [["fixed knobs", f"{fixed_time * 1000:.1f} ms", ""],
            ["planned (from feedback)", f"{planned_time * 1000:.1f} ms",
             f"{speedup:.2f}x fixed"]],
           ["engine", "full drain", "notes"])
    _update("remote_loop", summary)

    # The never-lose gate.
    assert speedup >= PLANNER_FACTOR, summary
