"""E14 — query governance overhead and the spill-vs-in-memory trade.

Two claims the governance PR must hold numerically
(``BENCH_governance.json`` records both):

* **fault-free overhead** — a run carrying a live (never cancelled)
  cancellation token and a generous memory budget must keep >=
  ``BENCH_GOVERNANCE_FACTOR`` of the ungoverned engine's throughput: the
  checkpoints are cheap flag reads and the budget charges are batched per
  chunk, so governance must be invisible on the happy path (the
  zero-governance contract already pins the *values* bit-for-bit; this
  pins the *time*);
* **spill degradation is bounded** — the same dedup workload with its
  seen-set forced to the hash-partitioned disk backend must complete
  within ``BENCH_GOVERNANCE_SPILL_FACTOR`` x the in-memory run, with
  identical element counts: over-budget queries degrade to
  slower-but-correct, not to failure — and not to pathological.

Both sections interleave their engines and take min-of-N, the same noise
discipline as the resilience benchmark.
"""

import os
import time

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.governance import CancellationToken

from conftest import report, update_summary

#: Governed throughput must stay >= FACTOR x ungoverned on the happy path.
GOVERNANCE_FACTOR = float(os.environ.get("BENCH_GOVERNANCE_FACTOR", "0.80"))
#: A spilled dedup must finish within SPILL_FACTOR x the in-memory run.
GOVERNANCE_SPILL_FACTOR = float(
    os.environ.get("BENCH_GOVERNANCE_SPILL_FACTOR", "60.0"))

REPS = 7
ROWS = 30_000


def _update(section, data):
    update_summary("BENCH_governance.json", section, data)


class RowsDriver(Driver):
    """A local table of ROWS integers, scanned lazily."""

    def __init__(self, name="rows"):
        super().__init__(name)

    def collection_names(self):
        return ["rows"]

    def cardinality(self, collection):
        return ROWS if collection == "rows" else None

    def _execute(self, request):
        def cursor():
            for i in range(request.get("count", ROWS)):
                yield i

        return cursor()


def _engine():
    engine = KleisliEngine()
    engine.register_driver(RowsDriver())
    return engine


def _shaping_chain(count=ROWS):
    scan = A.Scan("rows", {"table": "rows", "count": count}, kind="list")
    return B.ext("x", B.singleton(B.prim("add", B.prim("mul", B.var("x"),
                                                       B.const(3)),
                                         B.const(7)), "list"),
                 scan, kind="list")


def _dedup_chain(count=ROWS, distinct=None):
    """Set-kind comprehension: every element goes through the seen-set."""
    distinct = distinct if distinct is not None else count
    scan = A.Scan("rows", {"table": "rows", "count": count}, kind="list")
    return B.ext("x", B.singleton(B.prim("mod", B.var("x"),
                                         B.const(distinct)), "set"),
                 scan, kind="set")


def _drain(engine, expr, **kwargs):
    started = time.perf_counter()
    count = sum(1 for _ in engine.stream(expr, optimize=False,
                                         **kwargs))
    return count, time.perf_counter() - started


# ---------------------------------------------------------------------------
# Section 1: fault-free overhead of full governance
# ---------------------------------------------------------------------------

def test_fault_free_governance_overhead():
    expr = _shaping_chain()
    bare_engine = _engine()
    governed_engine = _engine()
    budget = 1 << 30  # generous: charged, never rejecting

    bare_time = governed_time = float("inf")
    bare_count = governed_count = None
    for _ in range(REPS):
        count, elapsed = _drain(bare_engine, expr)
        bare_count = bare_count or count
        bare_time = min(bare_time, elapsed)
        count, elapsed = _drain(governed_engine, expr,
                                cancellation=CancellationToken(),
                                memory_budget=budget)
        governed_count = governed_count or count
        governed_time = min(governed_time, elapsed)
    assert bare_count == governed_count == ROWS

    books = governed_engine.governor.snapshot()
    assert books["cancellations"] == books["budget_rejections"] == 0
    assert books["spills"] == 0

    ratio = bare_time / governed_time
    overhead_pct = (governed_time / bare_time - 1.0) * 100.0
    _update("fault_free_overhead", {
        "rows": ROWS,
        "bare_s": bare_time,
        "governed_s": governed_time,
        "throughput_ratio": ratio,
        "overhead_pct": overhead_pct,
        "gate_factor": GOVERNANCE_FACTOR,
    })
    report("E14a: fault-free overhead of full governance",
           [["ungoverned", f"{bare_time * 1000:.1f} ms", ""],
            ["token + budget installed", f"{governed_time * 1000:.1f} ms",
             f"{overhead_pct:+.1f}%"]],
           ["configuration", "drain time", "overhead"])
    assert ratio >= GOVERNANCE_FACTOR, (
        f"governance overhead too high: {overhead_pct:.1f}% "
        f"(throughput ratio {ratio:.3f} < gate {GOVERNANCE_FACTOR})")


# ---------------------------------------------------------------------------
# Section 2: spill-vs-in-memory throughput on a dedup-heavy workload
# ---------------------------------------------------------------------------

DEDUP_ROWS = 10_200
DISTINCT = 10_000  # >> the spill threshold: the seen-set really hits disk.
# ~2% duplicates: the hash-absent fast path (no disk touch) carries the
# distinct majority; each true duplicate costs one partition load — the
# backend's design point (probe locality, not probe-per-element disk).


def test_spill_vs_in_memory_throughput():
    expr = _dedup_chain(count=DEDUP_ROWS, distinct=DISTINCT)

    memory_time = spill_time = float("inf")
    memory_count = spill_count = None
    spill_engine = None
    for _ in range(3):
        engine = _engine()
        count, elapsed = _drain(engine, expr)
        memory_count = memory_count or count
        memory_time = min(memory_time, elapsed)

        spill_engine = _engine()
        count, elapsed = _drain(spill_engine, expr, spill=True)
        spill_count = spill_count or count
        spill_time = min(spill_time, elapsed)

    # Degradation is invisible in the values: identical distinct counts.
    assert memory_count == spill_count == DISTINCT

    books = spill_engine.governor.snapshot()
    assert books["spills"] > 0 and books["bytes_spilled"] > 0

    slowdown = spill_time / memory_time
    _update("spill_vs_in_memory", {
        "rows": DEDUP_ROWS,
        "distinct": DISTINCT,
        "in_memory_s": memory_time,
        "spilled_s": spill_time,
        "slowdown": slowdown,
        "bytes_spilled": books["bytes_spilled"],
        "gate_factor": GOVERNANCE_SPILL_FACTOR,
    })
    report("E14b: spill-to-disk vs in-memory dedup",
           [["in-memory seen-set", f"{memory_time * 1000:.1f} ms", ""],
            ["hash-partitioned spill", f"{spill_time * 1000:.1f} ms",
             f"{slowdown:.2f}x"]],
           ["backend", "drain time", "slowdown"])
    assert slowdown <= GOVERNANCE_SPILL_FACTOR, (
        f"spill degradation pathological: {slowdown:.2f}x in-memory "
        f"(gate {GOVERNANCE_SPILL_FACTOR}x)")
