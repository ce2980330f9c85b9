"""E11 — the planner vs fixed physical knobs.

The planner replaces the hand-set remote batch cap with a per-query
choice — the smallest candidate cap that holds a slow source's requests;
this benchmark measures it against the fixed-knob
ablation (``OptimizerConfig(planning=False)`` — exactly the pre-planner
engine) on the workload it targets:

* **fake_remote** — a scan-batched loop against a slow driver whose native
  ``execute_batch`` is one wire round-trip: from the declared latency the
  planner raises ``remote_max_chunk`` so round-trip count stops dominating
  (the fixed cap of 32 pays ~2x the round-trips).

A plan is what the sources declare or the registry observed, so a local
chain or a re-run stream plans exactly the fixed knobs: there is nothing
else to compare.

``BENCH_planner.json`` records the section (planned/fixed times, the chosen
plan, the speedup).  CI gates on ``BENCH_PLANNER_WIN``: the fake-remote
section must beat fixed knobs by at least that factor.
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

#: The planner must win where it claims to: the fake-remote section.
PLANNER_WIN = float(os.environ.get("BENCH_PLANNER_WIN", "1.2"))

REPS = 3


def _update(section, data):
    update_summary("BENCH_planner.json", section, data)


def _drain_stream(engine, expr):
    started = time.perf_counter()
    count = sum(1 for _ in engine.stream(expr, optimize=False))
    return count, time.perf_counter() - started


# ---------------------------------------------------------------------------
# Fake-remote batched scans (round-trip count dominates)
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
        engine = KleisliEngine(OptimizerConfig(planning=False))
        driver = engine.register_driver(BatchRemoteDriver(),
                                        latency=REMOTE_LATENCY)
        return engine, driver

    planned_count, planned_time, planned_trips = run(planned_factory)
    fixed_count, fixed_time, fixed_trips = run(fixed_factory)
    assert planned_count == fixed_count == REMOTE_IDS

    # The acceptance claim: the planner picked DIFFERENT knobs here.
    probe_engine, _ = planned_factory()
    plan = probe_engine.plan_for(expr)
    assert plan.source == "statistics"
    assert plan.remote_max_chunk == 256, plan.describe()
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
