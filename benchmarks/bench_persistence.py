"""E14 — the persistent plan ledger's warm-start win and write-through cost.

Two claims the crash-safe persistence PR must hold numerically
(``BENCH_persistence.json`` records both):

* **warm start** — an engine attached to a store a previous process
  learned into must beat a cold engine on its *first* query: the restored
  observed-latency EMA promotes the slow undeclared driver to remote, so
  the very first plan prefetches in parallel instead of paying one serial
  round-trip per element.  The first-query speedup must be at least
  ``BENCH_PERSISTENCE_FACTOR`` (local bar 2.0 — measured ~4.7x at 60 ms
  latency x 24 lookups — relaxed via the env knob for shared runners);
* **write-through overhead** — the journal append riding on every
  recorded run must not tax the happy path: a local drain with the store
  attached is compared against a storeless drain, and an explicit
  ``flush()`` is timed.  This section reports (and sanity-checks the
  books of) the durability tax; the env-gated bar stays on the warm-start
  section so runner jitter on a ~30 ms workload cannot flake CI.

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
    return PlanStore(os.fspath(path), stats_interval=10_000.0,
                     compact_bytes=0)


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
    # Learning process: two runs (the first observes the latency, the
    # second records feedback under the promoted plan), then a durable
    # flush — everything a real process would leave behind at exit.
    learner = KleisliEngine(plan_store=_store(tmp_path / "plans"))
    learner.register_driver(SlowLookupDriver())
    for _ in range(2):
        count, _ = _first_query(learner)
        assert count == LOOKUPS
    learner.flush_plan_store()
    learner.plan_store.close()

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
        warm.plan_store.close()

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
# Section 2: write-through overhead on the happy path
# ---------------------------------------------------------------------------

LOCAL_ROWS = 20_000


class RowsDriver(Driver):
    """A local table of LOCAL_ROWS integers — the pure happy-path load."""

    def __init__(self, name="rows"):
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


def _shaping_chain():
    scan = A.Scan("rows", {"table": "rows"}, kind="list")
    return B.ext("x", B.singleton(B.prim("add", B.prim("mul", B.var("x"),
                                                       B.const(3)),
                                         B.const(7)), "list"),
                 scan, kind="list")


def _drain(engine, expr):
    started = time.perf_counter()
    count = sum(1 for _ in engine.stream(expr, optimize=False))
    return count, time.perf_counter() - started


def test_write_through_overhead(tmp_path):
    expr = _shaping_chain()

    bare = KleisliEngine()
    bare.register_driver(RowsDriver())
    attached = KleisliEngine(plan_store=_store(tmp_path / "plans"))
    attached.register_driver(RowsDriver())

    bare_time = attached_time = float("inf")
    for _ in range(max(REPS, 5)):
        count, elapsed = _drain(bare, expr)
        assert count == LOCAL_ROWS
        bare_time = min(bare_time, elapsed)
        count, elapsed = _drain(attached, expr)
        assert count == LOCAL_ROWS
        attached_time = min(attached_time, elapsed)

    started = time.perf_counter()
    attached.flush_plan_store()
    flush_time = time.perf_counter() - started

    # The durability books must balance: every recorded run appended,
    # nothing failed, nothing was silently unpersistable.
    books = attached.health()["persistence"]
    assert books["records_appended"] >= 1
    assert books["append_failures"] == 0
    assert books["unpersistable"] == 0
    assert books["flushes"] >= 1
    attached.plan_store.close()

    overhead_pct = (attached_time / bare_time - 1.0) * 100.0
    summary = {
        "rows": LOCAL_ROWS,
        "bare_s": bare_time,
        "attached_s": attached_time,
        "overhead_pct": overhead_pct,
        "flush_s": flush_time,
        "records_appended": books["records_appended"],
        "journal_bytes": books["journal_bytes"],
    }
    report(f"E14b: write-through overhead, {LOCAL_ROWS}-row local drain",
           [["storeless", f"{bare_time * 1000:.1f} ms", ""],
            ["store attached", f"{attached_time * 1000:.1f} ms",
             f"{overhead_pct:+.1f}% ({books['journal_bytes']} journal bytes)"],
            ["flush()", f"{flush_time * 1000:.2f} ms", "durable fsync"]],
           ["path", "time", "notes"])
    _update("write_through_overhead", summary)
