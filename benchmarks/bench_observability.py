"""E15 — observability overhead: the hub, and EXPLAIN ANALYZE itself.

Two claims the observability PR must hold numerically
(``BENCH_observability.json`` records both):

* **hub overhead is bounded** — a run with a live :class:`Observability`
  hub attached (tracer + metrics + slow-query log all recording) must keep
  >= ``BENCH_OBSERVABILITY_FACTOR`` of the bare engine's streaming
  throughput: every hook is a ``None``-guarded attribute read on the bare
  path and a counter bump / span append on the observed path, so watching
  a query must never meaningfully slow it (the zero-recorder contract
  already pins the *values* bit-for-bit; this pins the *time*).  The
  design target is <= 5% overhead — quiet machines measure ~2-3% — and
  the recorded ``overhead_pct`` tracks it; the pass/fail gate leaves the
  same noise headroom as the governance bench;
* **EXPLAIN ANALYZE is affordable** — the same workload profiled
  (``profile=True``: per-stage probe tee, span tree, cardinality
  bookkeeping) must keep >= ``BENCH_OBSERVABILITY_PROFILE_FACTOR`` of
  bare throughput: profiling one query must be a tool an operator can
  reach for on production traffic, not a lab-only mode.

Both sections interleave their engines and take min-of-N, the same noise
discipline as the governance benchmark.
"""

import os
import time

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import KleisliEngine
from repro.obs import Observability

from conftest import report, update_summary

#: Observed throughput must stay >= FACTOR x bare with a hub attached.
OBSERVABILITY_FACTOR = float(
    os.environ.get("BENCH_OBSERVABILITY_FACTOR", "0.80"))
#: A profiled (EXPLAIN ANALYZE) run must stay >= PROFILE_FACTOR x bare.
OBSERVABILITY_PROFILE_FACTOR = float(
    os.environ.get("BENCH_OBSERVABILITY_PROFILE_FACTOR", "0.80"))

REPS = 9
ROWS = 80_000


def _update(section, data):
    update_summary("BENCH_observability.json", section, data)


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


def _drain(engine, expr, **kwargs):
    started = time.perf_counter()
    count = sum(1 for _ in engine.stream(expr, optimize=False,
                                         **kwargs))
    return count, time.perf_counter() - started


# ---------------------------------------------------------------------------
# Section 1: overhead of an attached hub on the streaming happy path
# ---------------------------------------------------------------------------

def test_attached_hub_overhead():
    expr = _shaping_chain()
    bare_engine = _engine()
    observed_engine = _engine()
    hub = observed_engine.attach_observability(Observability())

    _drain(bare_engine, expr)       # untimed warmup: JIT caches, allocator
    _drain(observed_engine, expr)
    bare_time = observed_time = float("inf")
    bare_count = observed_count = None
    for _ in range(REPS):
        count, elapsed = _drain(bare_engine, expr)
        bare_count = bare_count or count
        bare_time = min(bare_time, elapsed)
        count, elapsed = _drain(observed_engine, expr)
        observed_count = observed_count or count
        observed_time = min(observed_time, elapsed)
    assert bare_count == observed_count == ROWS

    # the hub really was watching every rep (plus the warmup)
    assert hub.tracer.snapshot()["started"] == REPS + 1
    assert hub.tracer.snapshot()["finished"] == REPS + 1
    assert bare_engine.observability is None

    ratio = bare_time / observed_time
    overhead_pct = (observed_time / bare_time - 1.0) * 100.0
    _update("attached_hub_overhead", {
        "rows": ROWS,
        "bare_s": bare_time,
        "observed_s": observed_time,
        "throughput_ratio": ratio,
        "overhead_pct": overhead_pct,
        "gate_factor": OBSERVABILITY_FACTOR,
    })
    report("E15a: streaming overhead with the observability hub attached",
           [["bare engine", f"{bare_time * 1000:.1f} ms", ""],
            ["hub attached", f"{observed_time * 1000:.1f} ms",
             f"{overhead_pct:+.1f}%"]],
           ["configuration", "drain time", "overhead"])
    assert ratio >= OBSERVABILITY_FACTOR, (
        f"observability overhead too high: {overhead_pct:.1f}% "
        f"(throughput ratio {ratio:.3f} < gate {OBSERVABILITY_FACTOR})")


# ---------------------------------------------------------------------------
# Section 2: the cost of EXPLAIN ANALYZE itself
# ---------------------------------------------------------------------------

def test_explain_analyze_overhead():
    expr = _shaping_chain()
    bare_engine = _engine()
    profiled_engine = _engine()

    _drain(bare_engine, expr)       # untimed warmup, as in section 1
    _drain(profiled_engine, expr, profile=True)
    bare_time = profiled_time = float("inf")
    bare_count = profiled_count = None
    for _ in range(REPS):
        count, elapsed = _drain(bare_engine, expr)
        bare_count = bare_count or count
        bare_time = min(bare_time, elapsed)
        count, elapsed = _drain(profiled_engine, expr, profile=True)
        profiled_count = profiled_count or count
        profiled_time = min(profiled_time, elapsed)
    assert bare_count == profiled_count == ROWS

    profile = profiled_engine.last_profile
    assert profile is not None and profile.status == "ok"
    assert profile.actual_rows == float(ROWS)
    assert profile.stages["pipeline"]["rows"] == ROWS

    ratio = bare_time / profiled_time
    overhead_pct = (profiled_time / bare_time - 1.0) * 100.0
    _update("explain_analyze_overhead", {
        "rows": ROWS,
        "bare_s": bare_time,
        "profiled_s": profiled_time,
        "throughput_ratio": ratio,
        "overhead_pct": overhead_pct,
        "gate_factor": OBSERVABILITY_PROFILE_FACTOR,
    })
    report("E15b: EXPLAIN ANALYZE overhead on the same workload",
           [["bare engine", f"{bare_time * 1000:.1f} ms", ""],
            ["profile=True", f"{profiled_time * 1000:.1f} ms",
             f"{overhead_pct:+.1f}%"]],
           ["configuration", "drain time", "overhead"])
    assert ratio >= OBSERVABILITY_PROFILE_FACTOR, (
        f"EXPLAIN ANALYZE overhead too high: {overhead_pct:.1f}% "
        f"(throughput ratio {ratio:.3f} < gate "
        f"{OBSERVABILITY_PROFILE_FACTOR})")
