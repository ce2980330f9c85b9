"""The reporting schema: what ``stats`` and ``metrics`` answer, pinned.

Every event is counted once.  Seven ``metrics`` series have no instrument of
their own: each is read at scrape time from the one place that counts its
event — a book the ``stats`` op reports, the tracer's trace count, or the
request-latency histogram's observation count.  So on any served run the
two ops agree, and a book-backed series counts from engine (or server)
start, not from when the hub was attached.
"""

import threading

import pytest

from conftest import wait_until
from fault_drivers import FaultInjectingDriver

from repro.core.errors import (
    RemoteQueryError,
    ServerOverloadedError,
    TransientDriverError,
)
from repro.core.values import CSet
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.resilience import RetryPolicy
from repro.obs import Observability
from repro.server import KleisliClient, KleisliServer

#: The key set of every dict ``stats`` answers on a hub-attached server with
#: one resilience-configured driver (``engine.<name>`` is a sub-section of
#: the engine health payload).
STATS_KEYS = {
    "server": {"sessions_opened", "sessions_closed", "sessions_refused",
               "queries", "rejections", "queued", "failures",
               "cursors_opened", "cursors_closed"},
    "admission": {"policy", "max_concurrent_queries", "queue_timeout"},
    "governance": {"cancellations", "spills", "bytes_spilled",
                   "rows_spilled", "budget_rejections", "watchdog_kills"},
    "observability": {"attached", "tracer", "slow_queries", "metric_count"},
    "engine": {"compile_cache", "drivers", "live_scopes", "resilience",
               "persistence", "governance", "observability", "row_width"},
    "engine.compile_cache": {"hits", "misses", "evictions", "size", "limit"},
    "engine.persistence": {"attached"},
    "engine.row_width": {"default", "sampled_rows", "sampled_bytes",
                         "row_bytes"},
    "engine.resilience.Faulty": {"requests", "retries", "timeouts",
                                 "failures", "midstream_faults",
                                 "recoveries", "degraded", "breaker"},
}

#: Every series name ``metrics`` renders.
SERIES = {
    "repro_breaker_transitions_total",
    "repro_budget_rejections_total",
    "repro_cancellations_total",
    "repro_chunk_rows",
    "repro_driver_failures_total",
    "repro_driver_request_seconds",
    "repro_driver_requests_total",
    "repro_queries_total",
    "repro_query_spilled_bytes",
    "repro_retries_total",
    "repro_server_admissions_immediate_total",
    "repro_server_admissions_queued_total",
    "repro_server_admissions_rejected_total",
    "repro_server_drains_total",
    "repro_server_queue_wait_seconds",
    "repro_spills_total",
}

#: A book-backed series and where a full ``stats`` reply holds its count.
BOOKED = {
    "repro_queries_total": ("engine", "observability", "tracer", "started"),
    "repro_retries_total": ("engine", "resilience", "Faulty", "retries"),
    "repro_cancellations_total": ("engine", "governance", "cancellations"),
    "repro_budget_rejections_total": ("engine", "governance",
                                      "budget_rejections"),
    "repro_spills_total": ("engine", "governance", "spills"),
    "repro_server_admissions_rejected_total": ("server", "rejections"),
}

HOLD = "{x | \\x <- Faulty(1000)}"
SMALL = "{x | \\x <- Faulty(3)}"
#: A streamed set the run must deduplicate: more distinct values than a
#: spill manager keeps in memory, so ``spill=True`` writes to disk.
SPILLING = "{x + 1 | \\x <- Faulty(3000)}"


def _engine():
    engine = KleisliEngine()
    # The first request fails once, transiently: one retry.
    engine.register_driver(FaultInjectingDriver(
        total=100_000, fail_on=[1], fault_type=TransientDriverError))
    engine.configure_resilience(
        "Faulty", retry=RetryPolicy(max_attempts=3, backoff_base=0.0))
    return engine


def _scrape(client):
    """``{series: value}`` for every plain sample, ``{name}`` of every series."""
    text = client.metrics_text()
    names = {line.split()[2] for line in text.splitlines()
             if line.startswith("# TYPE ")}
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, value = line.split()
            values[name] = float(value)
    return names, values


def _dig(reply, path):
    for key in path:
        reply = reply[key]
    return reply


def _stats_keys(client):
    keys = {}
    full = client.server_stats()
    for section in ("server", "admission", "engine"):
        keys[section] = set(full[section])
    for section in ("governance", "observability"):
        keys[section] = set(client.server_stats(section)[section])
    engine = full["engine"]
    for name in ("compile_cache", "persistence", "row_width"):
        keys["engine." + name] = set(engine[name])
    keys["engine.resilience.Faulty"] = set(engine["resilience"]["Faulty"])
    return keys


def _queued_query(server, client):
    """Send ``SMALL`` from a thread; return once the server has queued it."""
    outcome = {}
    queued = server.stats.queued

    def send():
        outcome["value"] = client.query(SMALL)
        outcome["admission"] = client.last_admission

    thread = threading.Thread(target=send)
    thread.start()
    assert wait_until(lambda: server.stats.queued == queued + 1)
    return thread, outcome


def test_a_served_run_reports_one_count_per_event():
    engine = _engine()
    hub = engine.attach_observability(Observability())
    server = KleisliServer(engine, max_concurrent_queries=1,
                           admission="queue", queue_timeout=0.05)
    with server, KleisliClient(server.address) as holder, \
            KleisliClient(server.address) as other:
        assert holder.query(SMALL) == CSet([0, 1, 2])       # one retry
        assert len(list(holder.stream(SPILLING, spill=True))) == 3000  # spills
        with pytest.raises(RemoteQueryError) as info:        # a budget kill
            holder.query(SPILLING, memory_budget=64, spill=False)
        assert info.value.error_type == "MemoryBudgetExceededError"

        cursor = holder.open(HOLD)           # holds the only slot
        holder.fetch(cursor, 2)
        with pytest.raises(ServerOverloadedError):
            other.query(SMALL)               # a rejected admission
        server.queue_timeout = 10.0
        thread, outcome = _queued_query(server, other)
        assert holder.cancel(cursor) is True  # a cancellation frees it
        thread.join(timeout=10.0)
        assert outcome == {"value": CSet([0, 1, 2]), "admission": "queued"}

        assert _stats_keys(holder) == STATS_KEYS
        names, series = _scrape(holder)
        assert names == SERIES
        stats = holder.server_stats()

    for name, path in BOOKED.items():
        assert series[name] == _dig(stats, path), name
    assert series["repro_driver_requests_total"] == \
        series["repro_driver_request_seconds_count"] == \
        stats["engine"]["drivers"]["Faulty"]
    books = stats["engine"]["governance"]
    assert series["repro_retries_total"] == 1
    assert series["repro_cancellations_total"] == 1
    assert series["repro_budget_rejections_total"] == 1
    assert series["repro_spills_total"] == books["spills"] > 0
    assert series["repro_server_admissions_rejected_total"] == 1
    assert series["repro_server_admissions_queued_total"] == 1
    assert series["repro_server_drains_total"] == 0
    assert hub.drains.value == 1             # the with-block's stop()


def test_book_backed_series_count_from_engine_start():
    """A Prometheus counter counts for the life of the process: retries
    and cancellations booked before the hub was attached are in the
    first scrape after it."""
    engine = _engine()
    with KleisliServer(engine) as server, \
            KleisliClient(server.address) as client:
        client.query(SMALL)
        client.cancel(client.open(HOLD))
        hub = engine.attach_observability(Observability())
        _, series = _scrape(client)
    assert series["repro_retries_total"] == 1
    assert series["repro_cancellations_total"] == 1
    # The hub's own two count from attachment: nothing has run under it.
    assert series["repro_queries_total"] == 0
    assert series["repro_driver_requests_total"] == 0
    assert hub.tracer.snapshot()["started"] == 0
