"""E11 — the planner vs fixed physical knobs.

The planner replaces the hand-set remote batch cap with a per-query
choice — the smallest candidate cap that holds a slow source's requests;
this benchmark measures it against the fixed-knob
ablation (``OptimizerConfig(planning=False)`` — exactly the pre-planner
engine) on the workload it targets:

* **fake_remote** — a loop of lookups against a slow driver whose native
  ``execute_batch`` is one wire round-trip, streamed as users run it
  (optimized): the loop is a bind join whose batches are the plan's
  ``remote_max_chunk``, and from the declared latency the planner raises
  that cap so round-trip count stops dominating — 2 round trips at 256
  against the fixed cap's 16 at 32.  (Before bind joins the optimized
  stream was a parallel loop of one request per task: 512 round trips,
  ~1.1 s, planned or not.)

A plan is what the sources declare or the registry observed, so a local
chain or a re-run stream plans exactly the fixed knobs: there is nothing
else to compare.

``BENCH_planner.json`` records the section (planned/fixed times, the chosen
plan, the speedup).  CI gates on ``BENCH_PLANNER_WIN``: the fake-remote
section must beat fixed knobs by at least that factor.
"""

import os
import threading
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
    count = sum(1 for _ in engine.stream(expr))
    return count, time.perf_counter() - started


# ---------------------------------------------------------------------------
# Fake-remote batched scans (round-trip count dominates)
# ---------------------------------------------------------------------------

REMOTE_IDS = 512
REMOTE_LATENCY = 0.01
#: The optimized stream's round trips when each task was one request.
ONE_REQUEST_PER_TASK_TRIPS = REMOTE_IDS


class BatchRemoteDriver(Driver):
    """A slow remote lookup whose native batch is ONE wire round-trip."""

    batch_single_round_trip = True

    def __init__(self, name="remote", latency=REMOTE_LATENCY):
        super().__init__(name)
        self.latency = latency
        self.round_trips = 0
        self._lock = threading.Lock()   # batches arrive on worker threads

    def _trip(self):
        with self._lock:
            self.round_trips += 1
        time.sleep(self.latency)

    def collection_names(self):
        return ["items"]

    def cardinality(self, collection):
        return 1 if collection == "items" else None

    def _lookup(self, request):
        return CList([int(request.get("key", 0)) * 10])

    def _execute(self, request):
        self._trip()
        return self._lookup(request)

    def execute_batch(self, requests):
        self._trip()  # one wire call for the whole batch
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

    # The acceptance claim: the planner picked DIFFERENT knobs here, and
    # the optimized loop sends its requests in batches of them.
    probe_engine, _ = planned_factory()
    plan = probe_engine.plan_for(probe_engine.compile(expr))
    assert plan.source == "statistics"
    assert plan.remote_max_chunk == 256, plan.describe()
    assert (planned_trips, fixed_trips) == (REMOTE_IDS // 256, REMOTE_IDS // 32)

    speedup = fixed_time / planned_time
    summary = {
        "ids": REMOTE_IDS,
        "round_trip_latency_s": REMOTE_LATENCY,
        "planned_s": planned_time,
        "fixed_s": fixed_time,
        "planned_round_trips": planned_trips,
        "fixed_round_trips": fixed_trips,
        "one_request_per_task_round_trips": ONE_REQUEST_PER_TASK_TRIPS,
        "planned_vs_fixed_speedup": speedup,
        "planned_plan": plan.describe(),
    }
    report(f"E11b: fake-remote batched scans, {REMOTE_IDS} lookups at "
           f"{REMOTE_LATENCY * 1000:.0f} ms/round-trip, optimized stream",
           [["one request per task", "~1100 ms",
             f"{ONE_REQUEST_PER_TASK_TRIPS} round-trips"],
            ["fixed knobs (cap 32)", f"{fixed_time * 1000:.0f} ms",
             f"{fixed_trips} round-trips"],
            ["planned", f"{planned_time * 1000:.0f} ms",
             f"{planned_trips} round-trips, {speedup:.2f}x fixed"]],
           ["engine", "full drain", "notes"])
    _update("fake_remote", summary)

    assert speedup >= PLANNER_WIN, summary
