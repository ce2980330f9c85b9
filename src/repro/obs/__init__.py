"""Observability: tracing, metrics, and EXPLAIN ANALYZE for the query engine.

The package is three orthogonal layers plus a hub that bundles them:

* :mod:`repro.obs.trace` — hierarchical query traces (query → plan → stage
  → driver-request spans) with an injectable clock and a bounded per-query
  span budget.
* :mod:`repro.obs.metrics` — a thread-safe registry of counters, gauges,
  and fixed-exponential-bucket histograms with a Prometheus-style text
  renderer.
* :mod:`repro.obs.profile` — EXPLAIN ANALYZE profiles (per-stage wall
  time, actual vs. planner-estimated cardinality, fallback/spill/retry
  annotations) and the slow-query log.

**The zero-recorder contract** (mirrors governance's zero-governance rule):
an engine with no :class:`Observability` hub attached and ``profile=False``
takes the exact pre-observability code paths — every hook site is
``None``-guarded, differential-pinned by the test suite, and the fault-free
overhead of an *attached* hub is CI-gated at ≤5% by
``benchmarks/bench_observability.py``.

Both lowerings (eager closures, chunked streams) inherit the
instrumentation from the same choke points — driver dispatch,
``EvalScope`` open/close, the plan probe, resilience retries and breaker
transitions, governance spills/cancellations, server admission/drain — so
no compiled artifact changes when observability is switched on.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      RowWidthEstimator, exponential_buckets)
from .profile import ProbeTee, QueryProfile, SlowQueryLog, StageCollector
from .trace import QueryTrace, Span, Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "RowWidthEstimator",
    "exponential_buckets", "ProbeTee", "QueryProfile", "SlowQueryLog",
    "StageCollector", "QueryTrace", "Span", "Tracer", "Observability",
]

# Preset bucket ladders for the hub's standard instruments.
LATENCY_BUCKETS = exponential_buckets(0.0001, 2.0, 18)    # 100µs .. ~13s
CHUNK_BUCKETS = exponential_buckets(1.0, 2.0, 16)         # 1 .. 32768 rows
QUEUE_WAIT_BUCKETS = exponential_buckets(0.001, 2.0, 14)  # 1ms .. ~8s
SPILL_BUCKETS = exponential_buckets(1024.0, 4.0, 12)      # 1KiB .. ~4GiB


class _ChunkSizeSink:
    """Probe sink feeding the chunk-size histogram (through a ProbeTee)."""

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram

    def note_chunk(self, stage: str, rows: int, seconds: float) -> None:
        self._histogram.observe(rows)

    def complete(self, cardinality: Optional[float] = None) -> None:
        pass


class Observability:
    """One engine's observability hub: metrics + tracer + slow-query log.

    Attach with ``engine.attach_observability(hub)``.  Every standard
    instrument is pre-registered here so hook sites stay single calls, and
    the whole hub shares one injectable ``clock`` for deterministic tests.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 slow_query_threshold: float = 0.25,
                 keep_traces: int = 32, keep_slow_queries: int = 32,
                 max_spans: int = 512) -> None:
        self.clock = clock
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock=clock, keep=keep_traces, max_spans=max_spans)
        self.slow_queries = SlowQueryLog(threshold=slow_query_threshold,
                                         keep=keep_slow_queries)
        m = self.metrics
        self.request_latency = m.histogram(
            "repro_driver_request_seconds", LATENCY_BUCKETS,
            "Wall time of one driver request (through resilience)")
        self.chunk_size = m.histogram(
            "repro_chunk_rows", CHUNK_BUCKETS,
            "Rows per chunk observed by the chunked pump")
        self.queue_wait = m.histogram(
            "repro_server_queue_wait_seconds", QUEUE_WAIT_BUCKETS,
            "Time an admitted request waited for a server slot")
        self.spilled_bytes = m.histogram(
            "repro_query_spilled_bytes", SPILL_BUCKETS,
            "Bytes spilled to disk per governed query")
        self.driver_requests = m.counter(
            "repro_driver_requests_total", "Driver requests dispatched")
        self.driver_failures = m.counter(
            "repro_driver_failures_total", "Driver requests that raised")
        self.retries = m.counter(
            "repro_retries_total", "Resilience retry attempts")
        self.breaker_transitions = m.counter(
            "repro_breaker_transitions_total", "Circuit-breaker state changes")
        self.queries = m.counter(
            "repro_queries_total", "Engine runs started under the hub")
        self.cancellations = m.counter(
            "repro_cancellations_total", "Queries ended by cancellation")
        self.budget_rejections = m.counter(
            "repro_budget_rejections_total", "Queries killed by memory budget")
        self.spills = m.counter(
            "repro_spills_total", "Spill events across governed queries")
        self.admissions_immediate = m.counter(
            "repro_server_admissions_immediate_total",
            "Requests admitted without queueing")
        self.admissions_queued = m.counter(
            "repro_server_admissions_queued_total",
            "Requests admitted after waiting in the queue")
        self.admissions_rejected = m.counter(
            "repro_server_admissions_rejected_total",
            "Requests shed by admission control")
        self.drains = m.counter(
            "repro_server_drains_total", "Server drain (graceful stop) events")

    # -- hook helpers (each a single call at the engine/server hook site) --

    def start_trace(self, name: str = "query", **attributes: object) -> QueryTrace:
        self.queries.inc()
        return self.tracer.start(name, **attributes)

    def observe_request(self, driver: str, seconds: float,
                        failed: bool = False) -> None:
        self.driver_requests.inc()
        if failed:
            self.driver_failures.inc()
        self.request_latency.observe(seconds)

    def chunk_sink(self) -> _ChunkSizeSink:
        return _ChunkSizeSink(self.chunk_size)

    def note_retry(self, driver: str, attempt: int) -> None:
        self.retries.inc()

    def note_breaker(self, driver: str, state: str) -> None:
        self.breaker_transitions.inc()

    def note_governance(self, key: str, amount: int = 1) -> None:
        counter = {"cancellations": self.cancellations,
                   "budget_rejections": self.budget_rejections}.get(key)
        if counter is not None:
            counter.inc(amount)

    def record_spill_books(self, books: Dict[str, int]) -> None:
        spills = books.get("spills", 0)
        if spills:
            self.spills.inc(spills)
        nbytes = books.get("bytes_spilled", 0)
        if nbytes:
            self.spilled_bytes.observe(nbytes)

    def observe_admission(self, outcome: str,
                          queue_wait: Optional[float] = None) -> None:
        counter = {"immediate": self.admissions_immediate,
                   "queued": self.admissions_queued,
                   "rejected": self.admissions_rejected}.get(outcome)
        if counter is not None:
            counter.inc()
        if queue_wait is not None:
            self.queue_wait.observe(queue_wait)

    def note_drain(self) -> None:
        self.drains.inc()

    def snapshot(self) -> Dict[str, object]:
        """Compact wire-safe summary for the server's ``stats`` section."""
        return {
            "attached": True,
            "tracer": self.tracer.snapshot(),
            "slow_queries": self.slow_queries.snapshot(),
            "metric_count": len(self.metrics.names()),
        }
