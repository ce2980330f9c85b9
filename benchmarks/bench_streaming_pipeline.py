"""E10 — streaming compiled backend vs eager compiled execution.

Section 4 ("Laziness, Latency, and Concurrency") makes *pipelined*
evaluation the centerpiece of Kleisli's responsiveness story: results should
reach the consumer while the remote source is still producing.  This
benchmark measures what the pull-based lowering (``compile_chunked``) buys
over the eager closure backend on a remote-scan comprehension chain:

* **time-to-first-result** — eager execution cannot yield anything until the
  scan is drained (O(n) source elements); the streaming pipeline yields
  after O(1);
* **total time** — both modes consume every element, so full-drain time must
  stay at parity;
* **peak intermediate size** — the eager backend buffers the whole result
  list; the pipeline holds no intermediate collection.

Two shapes that used to break the pipeline are benchmarked against the pure
``Ext`` chain:

* a **union chain** — ``Union`` of two remote-scan comprehensions; the
  typed streaming union (kind proof, see ``compile._chunk_union``) keeps
  its TTFR at one source element where the eager section used to drain both
  operands first;
* a **blocked-join probe** — a nested loop over a hoisted inner side, which
  is materialized once; results flow per outer element.

A ``BENCH_streaming.json`` summary is written next to this file for the
experiment log; CI uploads it as a workflow artifact and gates on the
union-chain/join TTFR factors below.
"""

import os
import time

from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import KleisliEngine
from repro.core.values import CList, iter_collection

from conftest import report, update_summary

#: Elements produced by the simulated remote scan, and per-element latency.
ELEMENTS = 150
LATENCY = 0.0015

#: Asserted floor for the time-to-first-result improvement.  The local bar
#: is 3x (the acceptance criterion; observed margin is orders of magnitude);
#: CI sets it lower to absorb shared-runner wall-clock noise.
MIN_SPEEDUP = float(os.environ.get("BENCH_STREAMING_MIN_SPEEDUP", "3.0"))
#: Allowed relative difference in full-drain time between the two backends.
PARITY_TOLERANCE = float(os.environ.get("BENCH_STREAMING_PARITY", "0.10"))
#: TTFR regression gates: a streamed union chain / blocked-join probe must
#: reach its first result within this factor of the pure-Ext chain's TTFR
#: (the acceptance bar is 5x; CI can widen it for shared-runner jitter).
UNION_TTFR_FACTOR = float(os.environ.get("BENCH_STREAMING_UNION_FACTOR", "5.0"))
JOIN_TTFR_FACTOR = float(os.environ.get("BENCH_STREAMING_JOIN_FACTOR", "5.0"))

REPS = 3


class SlowRemoteDriver(Driver):
    """A scan whose cursor yields one element per ``LATENCY`` seconds."""

    def __init__(self, name="remote", total=ELEMENTS, latency=LATENCY):
        super().__init__(name)
        self.total = total
        self.latency = latency

    def _execute(self, request):
        def cursor():
            for i in range(self.total):
                time.sleep(self.latency)
                yield i

        return cursor()


def _chain():
    """A comprehension chain over the remote scan: filter then transform."""
    inner = B.ext(
        "y",
        B.if_then_else(B.prim("gt", B.var("y"), B.const(-1)),
                       B.singleton(B.prim("add", B.var("y"), B.const(1000)),
                                   "list"),
                       B.empty("list")),
        A.Scan("remote", {"table": "t"}, kind="list"),
        kind="list")
    return B.ext("x", B.singleton(B.prim("mul", B.var("x"), B.const(1)), "list"),
                 inner, kind="list")


def _union_chain():
    """Union of two comprehension chains over the remote scan (list kind).

    Both operands are ``Ext`` nodes, so the kind proof holds and the union
    streams: the first result needs one element of the *left* scan; the
    right operand is not even requested yet.
    """
    def operand(offset):
        return B.ext("y",
                     B.singleton(B.prim("add", B.var("y"), B.const(offset)),
                                 "list"),
                     A.Scan("remote", {"table": "t"}, kind="list"),
                     kind="list")

    return A.Union(operand(1000), operand(5000), "list")


def _blocked_join_probe():
    """A blocked join probing the remote scan against a small local inner:
    the nested loop, its inner side hoisted (``Cached``)."""
    inner = A.Cached(A.Const(CList(range(0, 8))))
    condition = B.eq(B.prim("mod", B.var("o"), B.const(8)), B.var("i"))
    head = B.prim("add", B.prim("mul", B.var("o"), B.const(10)), B.var("i"))
    return B.ext("o", B.ext("i", B.if_then_else(
        condition, B.singleton(head, "list"), B.empty("list")), inner, "list"),
        A.Scan("remote", {"table": "t"}, kind="list"), "list")


def _engine():
    engine = KleisliEngine()
    engine.register_driver(SlowRemoteDriver())
    return engine


def _stream_first(engine, expr):
    """Time-to-first-result of the streamed pipeline (and close the rest)."""
    started = time.perf_counter()
    stream = engine.stream(expr, optimize=False, mode="compiled")
    first = next(stream)
    first_at = time.perf_counter() - started
    stream.close()
    return first, first_at


def _update_summary(section, data):
    """Merge one benchmark's numbers into BENCH_streaming.json."""
    update_summary("BENCH_streaming.json", section, data)


def _measure_streaming(engine, expr):
    started = time.perf_counter()
    stream = engine.stream(expr, optimize=False, mode="compiled")
    first = next(stream)
    first_at = time.perf_counter() - started
    count = 1 + sum(1 for _ in stream)
    total = time.perf_counter() - started
    return first, first_at, count, total, engine.last_eval_statistics


def _measure_eager(engine, expr):
    started = time.perf_counter()
    result = engine.execute(expr, optimize=False, mode="compiled")
    elements = list(iter_collection(result))
    first_at = time.perf_counter() - started  # nothing visible before this
    total = time.perf_counter() - started
    return elements[0], first_at, len(elements), total, engine.last_eval_statistics


def test_e10_report():
    expr = _chain()
    stream_first = eager_first = float("inf")
    stream_total = eager_total = float("inf")
    stream_count = eager_count = None
    stream_stats = eager_stats = None
    first_value_s = first_value_e = None
    for _ in range(REPS):
        first_value_s, first_at, stream_count, total, stream_stats = \
            _measure_streaming(_engine(), expr)
        stream_first = min(stream_first, first_at)
        stream_total = min(stream_total, total)
        first_value_e, first_at, eager_count, total, eager_stats = \
            _measure_eager(_engine(), expr)
        eager_first = min(eager_first, first_at)
        eager_total = min(eager_total, total)

    assert first_value_s == first_value_e == 1000
    assert stream_count == eager_count == ELEMENTS

    speedup = eager_first / stream_first
    parity = abs(stream_total - eager_total) / eager_total
    rows = [
        ["eager compiled", f"{eager_first * 1000:.1f} ms",
         f"{eager_total * 1000:.1f} ms", eager_stats.peak_intermediate],
        ["streaming compiled", f"{stream_first * 1000:.1f} ms",
         f"{stream_total * 1000:.1f} ms", stream_stats.peak_intermediate],
        ["streaming vs eager", f"{speedup:.1f}x faster to first result",
         f"{parity * 100:.1f}% total-time difference", ""],
    ]
    report(f"E10: remote-scan chain, {ELEMENTS} elements at "
           f"{LATENCY * 1000:.1f} ms each", rows,
           ["backend", "first result", "full drain", "peak intermediate"])

    summary = {
        "elements": ELEMENTS,
        "element_latency_s": LATENCY,
        "time_to_first_eager_s": eager_first,
        "time_to_first_streaming_s": stream_first,
        "first_result_speedup": speedup,
        "total_eager_s": eager_total,
        "total_streaming_s": stream_total,
        "total_time_relative_difference": parity,
        "peak_intermediate_eager": eager_stats.peak_intermediate,
        "peak_intermediate_streaming": stream_stats.peak_intermediate,
    }
    _update_summary("ext_chain", summary)

    # Acceptance: first element after O(1) source elements, not O(n) …
    assert speedup >= MIN_SPEEDUP, summary
    # … at total-time parity (both backends pay the same per-element latency) …
    assert parity <= PARITY_TOLERANCE, summary
    # … with no intermediate buffering in the pipeline.
    assert eager_stats.peak_intermediate >= ELEMENTS
    assert stream_stats.peak_intermediate == 0


def test_union_chain_ttfr():
    """The typed streaming union: TTFR within UNION_TTFR_FACTOR of the pure
    Ext chain (the eager-section union used to drain BOTH operand scans
    before the first result), zero intermediate materialization, and no
    stream fallbacks."""
    chain_expr = _chain()
    union_expr = _union_chain()

    chain_first = union_first = float("inf")
    union_eager_first = float("inf")
    stats = None
    for _ in range(REPS):
        _, first_at = _stream_first(_engine(), chain_expr)
        chain_first = min(chain_first, first_at)

        engine = _engine()
        value, first_at = _stream_first(engine, union_expr)
        assert value == 1000
        union_first = min(union_first, first_at)
        stats = engine.last_eval_statistics

        # The eager baseline: nothing visible until the whole union is built.
        engine = _engine()
        started = time.perf_counter()
        result = engine.execute(union_expr, optimize=False, mode="compiled")
        union_eager_first = min(union_eager_first,
                                time.perf_counter() - started)
        assert len(list(iter_collection(result))) == 2 * ELEMENTS

    # The union pipelines end-to-end: no eager section ran, nothing buffered.
    assert stats.stream_fallbacks == 0, stats.as_dict()
    assert stats.peak_intermediate == 0, stats.as_dict()
    query = _engine().compiled_chunked(union_expr)
    assert query.fully_chunked, query.eager_nodes

    ratio = union_first / chain_first
    summary = {
        "elements_per_operand": ELEMENTS,
        "chain_ttfr_s": chain_first,
        "union_ttfr_s": union_first,
        "union_eager_ttfr_s": union_eager_first,
        "union_vs_chain_ttfr_factor": ratio,
        "union_vs_eager_speedup": union_eager_first / union_first,
        "peak_intermediate_streaming": stats.peak_intermediate,
        "stream_fallbacks": stats.stream_fallbacks,
    }
    report("E10b: typed streaming union vs pure Ext chain",
           [["pure Ext chain", f"{chain_first * 1000:.1f} ms", ""],
            ["streamed union chain", f"{union_first * 1000:.1f} ms",
             f"{ratio:.1f}x the chain's TTFR"],
            ["eager union (baseline)", f"{union_eager_first * 1000:.1f} ms",
             f"{union_eager_first / union_first:.0f}x slower to first result"]],
           ["shape", "first result", "notes"])
    _update_summary("union_chain", summary)

    # The TTFR regression gate CI enforces (BENCH_STREAMING_UNION_FACTOR).
    assert ratio <= UNION_TTFR_FACTOR, summary


def test_blocked_join_probe_ttfr():
    """The per-element join probe: a blocked join reaches its first result
    within JOIN_TTFR_FACTOR of the pure Ext chain."""
    chain_expr = _chain()
    probe_expr = _blocked_join_probe()

    chain_first = probe_first = float("inf")
    stats = None
    for _ in range(REPS):
        _, first_at = _stream_first(_engine(), chain_expr)
        chain_first = min(chain_first, first_at)

        engine = _engine()
        value, first_at = _stream_first(engine, probe_expr)
        assert value == 0
        probe_first = min(probe_first, first_at)
        stats = engine.last_eval_statistics

    assert stats.stream_fallbacks == 0, stats.as_dict()
    assert stats.peak_intermediate == 0, stats.as_dict()

    # Differential guard: the streamed probe emits outer-major, the element
    # sequence of eager execution.
    probe_all = list(_engine().stream(probe_expr, optimize=False, mode="compiled"))
    eager_all = list(iter_collection(
        _engine().execute(probe_expr, optimize=False, mode="compiled")))
    assert probe_all == eager_all

    ratio = probe_first / chain_first
    summary = {
        "outer_elements": ELEMENTS,
        "chain_ttfr_s": chain_first,
        "join_probe_ttfr_s": probe_first,
        "join_probe_vs_chain_ttfr_factor": ratio,
        "stream_fallbacks": stats.stream_fallbacks,
    }
    report("E10c: per-element join probe",
           [["pure Ext chain", f"{chain_first * 1000:.1f} ms", ""],
            ["blocked join", f"{probe_first * 1000:.1f} ms",
             f"{ratio:.1f}x the chain's TTFR"]],
           ["shape", "first result", "notes"])
    _update_summary("blocked_join_probe", summary)

    # The TTFR regression gate CI enforces (BENCH_STREAMING_JOIN_FACTOR).
    assert ratio <= JOIN_TTFR_FACTOR, summary


def test_first_result_consumes_o1_source_elements():
    """The pipelining claim stated without wall clocks: pulling the first
    element consumes O(1) elements from the source, independent of n."""

    class CountingDriver(Driver):
        def __init__(self):
            super().__init__("remote")
            self.produced = 0

        def _execute(self, request):
            def cursor():
                for i in range(10_000):
                    self.produced += 1
                    yield i

            return cursor()

    engine = KleisliEngine()
    driver = engine.register_driver(CountingDriver())
    stream = engine.stream(_chain(), optimize=False, mode="compiled")
    assert next(stream) == 1000
    assert driver.produced <= 3, \
        f"first result consumed {driver.produced} source elements"
    stream.close()
