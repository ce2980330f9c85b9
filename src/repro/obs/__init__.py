"""Observability: tracing, metrics, and EXPLAIN ANALYZE for the query engine.

The package is three orthogonal layers plus a hub that bundles them:

* :mod:`repro.obs.trace` — hierarchical query traces (query → plan → stage
  → driver-request spans) with an injectable clock and a bounded per-query
  span budget.
* :mod:`repro.obs.metrics` — :class:`Books` (a subsystem's named counts)
  and a thread-safe registry of counters and fixed-exponential-bucket
  histograms with a Prometheus-style text renderer.
* :mod:`repro.obs.profile` — EXPLAIN ANALYZE profiles (per-stage wall
  time, actual vs. planner-estimated cardinality, fallback/spill/retry
  annotations) and the slow-query log.

**The zero-recorder contract** (mirrors governance's zero-governance rule):
an engine with no :class:`Observability` hub attached and ``profile=False``
takes the exact pre-observability code paths — every hook site is
``None``-guarded, differential-pinned by the test suite, and the fault-free
overhead of an *attached* hub is CI-gated at ≤5% by
``benchmarks/bench_observability.py``.

**One count per event.**  The hub holds only what no book counts: the
tracer (fed at ``EvalScope`` open/close and driver dispatch), the
slow-query log (at a run's ``finish``), four histograms (request latency at
driver dispatch, chunk rows from the chunk sink, queue wait at server
admission, spilled bytes at spill settlement) and five counters (driver
failures, breaker transitions, immediate and queued admissions, drains).
Every other ``metrics`` series is read at scrape time from the one place
that counts its event, through :data:`BOOK_SERIES`.  Both lowerings inherit
all of it from the same choke points, so no compiled artifact changes when
observability is switched on.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Mapping

from .metrics import (Books, Counter, Histogram, MetricsRegistry,
                      RowWidthEstimator, exponential_buckets)
from .profile import ProbeTee, QueryProfile, SlowQueryLog, StageCollector
from .trace import QueryTrace, Span, Tracer

__all__ = [
    "Books", "Counter", "Histogram", "MetricsRegistry",
    "RowWidthEstimator", "exponential_buckets", "ProbeTee", "QueryProfile",
    "SlowQueryLog", "StageCollector", "QueryTrace", "Span", "Tracer",
    "Observability",
]

# Preset bucket ladders for the hub's standard instruments.
LATENCY_BUCKETS = exponential_buckets(0.0001, 2.0, 18)    # 100µs .. ~13s
CHUNK_BUCKETS = exponential_buckets(1.0, 2.0, 16)         # 1 .. 32768 rows
QUEUE_WAIT_BUCKETS = exponential_buckets(0.001, 2.0, 14)  # 1ms .. ~8s
SPILL_BUCKETS = exponential_buckets(1024.0, 4.0, 12)      # 1KiB .. ~4GiB

#: The series ``metrics`` reads from a count kept elsewhere, not a hub
#: instrument: ``name -> (help, book, key)``.  ``tracer`` (its trace count)
#: and ``requests`` (the request-latency histogram's count) are the hub's own
#: and count from attachment; ``resilience`` (summed over drivers),
#: ``governance`` and ``server`` count from engine or server start, as a
#: process-lifetime counter should.
BOOK_SERIES = {
    "repro_queries_total": (
        "Engine runs started under the hub", "tracer", "started"),
    "repro_driver_requests_total": (
        "Driver requests dispatched", "requests", "count"),
    "repro_retries_total": (
        "Resilience retry attempts", "resilience", "retries"),
    "repro_cancellations_total": (
        "Queries ended by cancellation", "governance", "cancellations"),
    "repro_budget_rejections_total": (
        "Queries killed by memory budget", "governance", "budget_rejections"),
    "repro_spills_total": (
        "Spill events across governed queries", "governance", "spills"),
    "repro_server_admissions_rejected_total": (
        "Requests shed by admission control (draining, full, queue "
        "timeout or cursor quota)", "server", "rejections"),
}


class _ChunkSizeSink:
    """Probe sink feeding the chunk-size histogram (through a ProbeTee)."""

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram

    def note_chunk(self, stage: str, rows: int, seconds: float) -> None:
        self._histogram.observe(rows)


class Observability:
    """One engine's observability hub: metrics + tracer + slow-query log.

    Attach with ``engine.attach_observability(hub)``.  Every instrument is
    pre-registered here so hook sites stay single calls, and the whole hub
    shares one injectable ``clock`` for deterministic tests.
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
            "Time a queued request waited for a server slot")
        self.spilled_bytes = m.histogram(
            "repro_query_spilled_bytes", SPILL_BUCKETS,
            "Bytes spilled to disk per governed query")
        self.driver_failures = m.counter(
            "repro_driver_failures_total", "Driver requests that raised")
        self.breaker_transitions = m.counter(
            "repro_breaker_transitions_total", "Circuit-breaker state changes")
        self.admissions_immediate = m.counter(
            "repro_server_admissions_immediate_total",
            "Requests admitted without queueing")
        self.admissions_queued = m.counter(
            "repro_server_admissions_queued_total",
            "Requests admitted after waiting in the queue")
        self.drains = m.counter(
            "repro_server_drains_total", "Server drain (graceful stop) events")

    # -- hook helpers (each a single call at the engine/server hook site) --

    def observe_request(self, seconds: float, failed: bool = False) -> None:
        if failed:
            self.driver_failures.inc()
        self.request_latency.observe(seconds)

    def chunk_sink(self) -> _ChunkSizeSink:
        return _ChunkSizeSink(self.chunk_size)

    def observe_queue_wait(self, seconds: float, admitted: bool) -> None:
        """A queued request's wait, admitted or not (a refusal is the
        server's ``rejections`` book)."""
        if admitted:
            self.admissions_queued.inc()
        self.queue_wait.observe(seconds)

    def render(self, books: Mapping[str, Mapping[str, int]]) -> str:
        """Prometheus text of the instruments and of every
        :data:`BOOK_SERIES` series, read from ``books`` (book name ->
        counts) and the hub's own ``tracer`` and ``requests``."""
        books = {"tracer": self.tracer.snapshot(),
                 "requests": {"count": self.request_latency.count}, **books}
        return self.metrics.render(
            (name, help, books.get(book, {}).get(key, 0))
            for name, (help, book, key) in BOOK_SERIES.items())

    def snapshot(self) -> Dict[str, object]:
        """Compact wire-safe summary for the server's ``stats`` section."""
        return {
            "attached": True,
            "tracer": self.tracer.snapshot(),
            "slow_queries": self.slow_queries.snapshot(),
            "metric_count": len(self.metrics.names()),
        }
