"""E13 — the resilience layer's overhead and recovery-latency budget.

Two claims the fault-tolerance PR must hold numerically, not just
logically (``BENCH_resilience.json`` records both):

* **fault-free overhead** — installing a retry policy + circuit breaker on
  a driver must not tax the happy path: a streamed drain through the
  resilience-wrapped scan must keep >= ``BENCH_RESILIENCE_FACTOR`` of the
  bare engine's throughput (local bar 0.95 — the ISSUE's <= 5% overhead —
  relaxed via the env knob for shared-runner jitter);
* **bounded recovery latency** — under a 10%-transient fault schedule
  (every 10th driver request dies retryably), total wall time must stay
  within ``BENCH_RESILIENCE_RECOVERY`` x the fault-free run: recovery is a
  re-issue plus a seen-prefix skip, not a restart of the world.

Both sections interleave their engines and take min-of-N, the same noise
discipline as the planner benchmark.
"""

import os
import time

from repro.core.errors import TransientDriverError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.drivers.base import Driver
from repro.kleisli.resilience import CircuitBreakerPolicy, RetryPolicy

from conftest import report, update_summary

#: Resilient throughput must stay >= FACTOR x bare on the fault-free path.
RESILIENCE_FACTOR = float(os.environ.get("BENCH_RESILIENCE_FACTOR", "0.95"))
#: A 10%-transient run must finish within RECOVERY x the fault-free time.
RESILIENCE_RECOVERY = float(
    os.environ.get("BENCH_RESILIENCE_RECOVERY", "2.0"))

REPS = 7


def _update(section, data):
    update_summary("BENCH_resilience.json", section, data)


# ---------------------------------------------------------------------------
# Section 1: fault-free overhead of the installed layer
# ---------------------------------------------------------------------------

ROWS = 30_000


class RowsDriver(Driver):
    """A local table of ROWS integers — the pure happy-path workload."""

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


def _shaping_chain(driver="rows", count=ROWS):
    scan = A.Scan(driver, {"table": "rows", "count": count}, kind="list")
    return B.ext("x", B.singleton(B.prim("add", B.prim("mul", B.var("x"),
                                                       B.const(3)),
                                         B.const(7)), "list"),
                 scan, kind="list")


def _drain(engine, expr):
    started = time.perf_counter()
    count = sum(1 for _ in engine.stream(expr, optimize=False))
    return count, time.perf_counter() - started


def test_fault_free_overhead():
    expr = _shaping_chain()

    bare_engine = KleisliEngine()
    bare_engine.register_driver(RowsDriver())

    resilient_engine = KleisliEngine()
    resilient_engine.register_driver(RowsDriver())
    resilient_engine.configure_resilience(
        "rows",
        RetryPolicy(max_attempts=3, request_timeout=60.0),
        CircuitBreakerPolicy())

    bare_time = resilient_time = float("inf")
    bare_count = resilient_count = None
    for _ in range(REPS):
        count, elapsed = _drain(bare_engine, expr)
        bare_count = bare_count or count
        bare_time = min(bare_time, elapsed)
        count, elapsed = _drain(resilient_engine, expr)
        resilient_count = resilient_count or count
        resilient_time = min(resilient_time, elapsed)
    assert bare_count == resilient_count == ROWS

    # The layer did engage (policy lookups happened) but never retried.
    books = resilient_engine.health()["resilience"]["rows"]
    assert books["requests"] == REPS
    assert books["retries"] == books["failures"] == 0

    ratio = bare_time / resilient_time
    overhead_pct = (resilient_time / bare_time - 1.0) * 100.0
    _update("fault_free_overhead", {
        "rows": ROWS,
        "bare_s": bare_time,
        "resilient_s": resilient_time,
        "throughput_ratio": ratio,
        "overhead_pct": overhead_pct,
        "gate_factor": RESILIENCE_FACTOR,
    })
    report("E13a: fault-free overhead of the resilience layer",
           [["bare engine", f"{bare_time * 1000:.1f} ms", ""],
            ["retry+breaker installed", f"{resilient_time * 1000:.1f} ms",
             f"{overhead_pct:+.1f}%"]],
           ["configuration", "drain time", "overhead"])
    assert ratio >= RESILIENCE_FACTOR, (
        f"resilience layer overhead too high: {overhead_pct:.1f}% "
        f"(throughput ratio {ratio:.3f} < gate {RESILIENCE_FACTOR})")


# ---------------------------------------------------------------------------
# Section 2: recovery latency under a 10%-transient schedule
# ---------------------------------------------------------------------------

QUERIES = 120
QUERY_ROWS = 40


class FlakyRowsDriver(RowsDriver):
    """Every 10th request dies retryably before opening its cursor."""

    def __init__(self, name="rows", period=0):
        super().__init__(name)
        self.period = period
        self.requests_served = 0
        self.faults_raised = 0

    def _execute(self, request):
        self.requests_served += 1
        if self.period and self.requests_served % self.period == 0:
            self.faults_raised += 1
            raise TransientDriverError(
                f"{self.name}: injected transient "
                f"#{self.requests_served}")
        return super()._execute(request)


def _run_queries(engine, expr):
    started = time.perf_counter()
    total = 0
    for _ in range(QUERIES):
        total += sum(1 for _ in engine.stream(expr, optimize=False))
    return total, time.perf_counter() - started


def test_recovery_latency_under_transient_faults():
    expr = _shaping_chain(count=QUERY_ROWS)

    clean_time = faulty_time = float("inf")
    clean_total = faulty_total = None
    faulty_engine = None
    for _ in range(3):
        clean_engine = KleisliEngine()
        clean_engine.register_driver(FlakyRowsDriver(period=0))
        clean_engine.configure_resilience(
            "rows", RetryPolicy(max_attempts=3, backoff_base=0.0))
        total, elapsed = _run_queries(clean_engine, expr)
        clean_total = clean_total or total
        clean_time = min(clean_time, elapsed)

        faulty_engine = KleisliEngine()
        driver = faulty_engine.register_driver(FlakyRowsDriver(period=10))
        faulty_engine.configure_resilience(
            "rows", RetryPolicy(max_attempts=3, backoff_base=0.0))
        total, elapsed = _run_queries(faulty_engine, expr)
        faulty_total = faulty_total or total
        faulty_time = min(faulty_time, elapsed)
        assert driver.faults_raised > 0

    # Recovery is invisible in the values: identical row counts.
    assert clean_total == faulty_total == QUERIES * QUERY_ROWS

    books = faulty_engine.health()["resilience"]["rows"]
    slowdown = faulty_time / clean_time
    _update("recovery_latency", {
        "queries": QUERIES,
        "rows_per_query": QUERY_ROWS,
        "fault_period": 10,
        "clean_s": clean_time,
        "faulty_s": faulty_time,
        "slowdown": slowdown,
        "retries": books["retries"],
        "gate_factor": RESILIENCE_RECOVERY,
    })
    report("E13b: recovery latency, 10% transient faults",
           [["fault-free", f"{clean_time * 1000:.1f} ms", ""],
            ["10% transient", f"{faulty_time * 1000:.1f} ms",
             f"{slowdown:.2f}x"]],
           ["schedule", "total time", "slowdown"])
    assert slowdown <= RESILIENCE_RECOVERY, (
        f"recovery latency unbounded: {slowdown:.2f}x fault-free "
        f"(gate {RESILIENCE_RECOVERY}x)")
