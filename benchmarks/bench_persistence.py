"""E14 — the persistent statistics' warm-start win and the store's cost.

Two claims the crash-safe plan store must hold numerically
(``BENCH_persistence.json`` records both):

* **warm start** — an engine attached to a store a previous process
  learned into must beat a cold engine on its *first* query: the restored
  observed-latency EMA promotes the slow undeclared driver to remote, so
  the very first plan prefetches in parallel instead of paying one serial
  round-trip per element.  The first-query speedup must be at least
  ``BENCH_PERSISTENCE_FACTOR`` (local bar 2.0 — measured ~4.7x at 60 ms
  latency x 24 lookups — relaxed via the env knob for shared runners);
* **store overhead** — an attached store writes its one snapshot (read,
  merge, write, fsync, replace) each time the statistics registry's epoch
  moves, never per run.  This section times one write and reports the
  snapshot's bytes, and times registering 100 cardinalities — one write
  each — against a storeless engine, checking the write books.  The
  env-gated bar stays on the warm-start section, so a slow disk on a
  shared runner cannot flake CI.

Both sections take min-of-REPS, the same noise discipline as the planner
benchmark.
"""

import os
import time

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.planner import PlanStore
from repro.core.values import CList
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import KleisliEngine

from conftest import report, update_summary

#: Warm first query must beat cold first query by at least this factor.
PERSISTENCE_FACTOR = float(os.environ.get("BENCH_PERSISTENCE_FACTOR", "2.0"))

REPS = 3


def _update(section, data):
    update_summary("BENCH_persistence.json", section, data)


def _store(path):
    return PlanStore(os.fspath(path))


# ---------------------------------------------------------------------------
# Section 1: warm start — the first query after a restart
# ---------------------------------------------------------------------------

LOOKUPS = 24
LATENCY = 0.06  # > REMOTE_LATENCY_THRESHOLD: observed EMA promotes remote


class SlowLookupDriver(Driver):
    """A slow per-key lookup that does NOT declare its latency: only a
    prior process's observations can tell a fresh engine it is remote."""

    def __init__(self, name="slowlook", latency=LATENCY):
        super().__init__(name)
        self.latency = latency

    def collection_names(self):
        return ["items"]

    def cardinality(self, collection):
        return 1 if collection == "items" else None

    def _execute(self, request):
        time.sleep(self.latency)
        return CList([int(request.get("key", 0)) * 10])


def _lookup_loop():
    scan = A.Scan("slowlook", {"table": "items"},
                  args={"key": B.var("x")}, kind="list")
    return B.ext("x", scan, A.Const(CList(range(LOOKUPS))), kind="list")


def _first_query(engine):
    started = time.perf_counter()
    count = sum(1 for _ in engine.stream(_lookup_loop()))
    return count, time.perf_counter() - started


def test_warm_start_first_query(tmp_path):
    # Learning process: two runs (the first observes the latency and
    # writes the promotion, the second runs under the promoted plan),
    # then a flush — everything a real process leaves behind.
    learner = KleisliEngine(plan_store=_store(tmp_path / "plans"))
    learner.register_driver(SlowLookupDriver())
    for _ in range(2):
        count, _ = _first_query(learner)
        assert count == LOOKUPS
    learner.flush_plan_store()

    warm_time = cold_time = float("inf")
    warm_plan = None
    for _ in range(REPS):
        warm = KleisliEngine(plan_store=_store(tmp_path / "plans"))
        warm.register_driver(SlowLookupDriver())
        assert warm.statistics_registry.is_remote("slowlook")
        count, elapsed = _first_query(warm)
        assert count == LOOKUPS
        warm_time = min(warm_time, elapsed)
        warm_plan = warm.last_plan

        cold = KleisliEngine()
        cold.register_driver(SlowLookupDriver())
        assert not cold.statistics_registry.is_remote("slowlook")
        count, elapsed = _first_query(cold)
        assert count == LOOKUPS
        cold_time = min(cold_time, elapsed)

    # The win is structural, not just timed: the warm engine's first plan
    # is chosen from restored statistics (the driver is known remote, so
    # its loop runs in parallel), the cold one pays serial latency.
    assert warm_plan.source == "statistics"

    speedup = cold_time / warm_time
    summary = {
        "lookups": LOOKUPS,
        "latency_s": LATENCY,
        "cold_first_query_s": cold_time,
        "warm_first_query_s": warm_time,
        "warm_vs_cold_speedup": speedup,
        "warm_plan": warm_plan.describe(),
    }
    report(f"E14a: first query after restart, {LOOKUPS} lookups at "
           f"{LATENCY * 1000:.0f} ms each",
           [["cold (no store)", f"{cold_time * 1000:.0f} ms", "serial loop"],
            ["warm (restored)", f"{warm_time * 1000:.0f} ms",
             f"prefetched, {speedup:.2f}x cold"]],
           ["engine", "first query", "notes"])
    _update("warm_start", summary)

    assert speedup >= PERSISTENCE_FACTOR, summary


# ---------------------------------------------------------------------------
# Section 2: store overhead — what one write costs
# ---------------------------------------------------------------------------

REGISTRATIONS = 100


def _register(engine):
    started = time.perf_counter()
    for n in range(REGISTRATIONS):
        engine.statistics_registry.register_cardinality("rows", f"t{n}", n)
    return time.perf_counter() - started


def test_store_overhead(tmp_path):
    bare_time = attached_time = write_time = float("inf")
    for rep in range(REPS):
        bare_time = min(bare_time, _register(KleisliEngine()))
        attached = KleisliEngine(plan_store=_store(tmp_path / f"plans{rep}"))
        attached_time = min(attached_time, _register(attached))
        started = time.perf_counter()
        attached.flush_plan_store()
        write_time = min(write_time, time.perf_counter() - started)

    # The write books must balance: one write per registration plus the
    # flush, none failed, nothing left out.
    books = attached.health()["persistence"]
    assert books["writes"] == REGISTRATIONS + 1
    assert books["write_failures"] == 0
    assert books["unpersistable"] == 0
    assert sorted(os.listdir(tmp_path / "plans0")) == ["lock", "snapshot.kjs"]

    per_write_ms = (attached_time - bare_time) / REGISTRATIONS * 1000.0
    summary = {
        "registrations": REGISTRATIONS,
        "storeless_register_s": bare_time,
        "attached_register_s": attached_time,
        "per_registration_write_ms": per_write_ms,
        "write_s": write_time,
        "snapshot_bytes": books["snapshot_bytes"],
        "writes": books["writes"],
        "write_failures": books["write_failures"],
        "unpersistable": books["unpersistable"],
    }
    report(f"E14b: store overhead, {REGISTRATIONS} registered cardinalities",
           [["storeless", f"{bare_time * 1000:.2f} ms", ""],
            ["store attached", f"{attached_time * 1000:.1f} ms",
             f"{per_write_ms:.2f} ms per write"],
            ["one write", f"{write_time * 1000:.2f} ms",
             f"{books['snapshot_bytes']} snapshot bytes"]],
           ["path", "time", "notes"])
    _update("store_overhead", summary)
