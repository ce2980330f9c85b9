"""E8c — adaptive concurrency ([43]): adjust the level to the server's capability.

Paper claim (Section 4, closing paragraph): a fixed level of concurrency must
be chosen against an unknown server capacity — too low wastes the latency
overlap, too high overwhelms the server; *"techniques to automatically adjust
the level of concurrency based on the capability of servers and on resource
availability are being developed"* [43].

This benchmark compares a :class:`~repro.kleisli.scheduler.Scheduler` window
pinned at fixed worker counts against the same scheduler with the window free
to move (``adaptive=True``) on two simulated servers:

* a *capable* server (high concurrency cap) — the adaptive scheduler should
  ramp up and approach the best fixed setting;
* a *fragile* server (cap of 3) — fixed settings above the cap are rejected,
  while the adaptive scheduler backs off, settles at the cap, and completes
  every request.
"""

import time

import pytest

from repro.core.errors import RemoteSourceError
from repro.kleisli.scheduler import Scheduler
from repro.net.remote import RemoteSource

from conftest import report

LATENCY = 0.01
REQUESTS = 40


def _server(cap: int) -> RemoteSource:
    return RemoteSource("GenBank", lambda x: x, latency=LATENCY,
                        max_concurrent_requests=cap)


def _run(scheduler, cap: int):
    server = _server(cap)
    started = time.perf_counter()
    try:
        # A task is a list of work units: one request each.
        for _ in scheduler.prefetch(lambda task: server.call(task[0]),
                                    ([request] for request in range(REQUESTS))):
            pass
        failed = False
    except RemoteSourceError:
        failed = True
    finally:
        # Release the workers so one section's idle threads cannot add noise
        # to the next timed section.
        scheduler.close()
    elapsed = time.perf_counter() - started
    return elapsed, server, failed


# --------------------------------------------------------------------------
# pytest-benchmark timings
# --------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["fixed-1", "fixed-5", "adaptive"])
def test_adaptive_against_capable_server(benchmark, mode):
    def once():
        if mode == "adaptive":
            scheduler = Scheduler(max_workers=8, adaptive=True)
        else:
            scheduler = Scheduler(max_workers=int(mode.split("-")[1]))
        return _run(scheduler, cap=16)

    benchmark(once)


# --------------------------------------------------------------------------
# Paper-style comparison tables
# --------------------------------------------------------------------------

def test_e8c_capable_server_report():
    rows = []
    timings = {}
    for label, scheduler in [
        ("fixed 1 worker", Scheduler(max_workers=1)),
        ("fixed 5 workers", Scheduler(max_workers=5)),
        ("fixed 8 workers", Scheduler(max_workers=8)),
        ("adaptive (cap 8)", Scheduler(max_workers=8, adaptive=True)),
    ]:
        elapsed, server, failed = _run(scheduler, cap=16)
        assert not failed
        timings[label] = elapsed
        rows.append([label, f"{elapsed * 1000:.0f} ms", server.log.max_concurrency(),
                     scheduler.level])
    report(f"E8c: {REQUESTS} requests to a capable server ({LATENCY * 1000:.0f} ms latency, cap 16)",
           rows, ["scheduler", "total time", "peak in-flight", "final level"])
    # The adaptive scheduler beats the sequential baseline clearly and lands
    # within a small factor of the best fixed setting.
    assert timings["adaptive (cap 8)"] < timings["fixed 1 worker"] / 1.5
    assert timings["adaptive (cap 8)"] < timings["fixed 5 workers"] * 3


def test_e8c_fragile_server_report():
    cap = 3
    rows = []
    outcomes = {}
    for label, factory in [
        ("fixed 8 workers", lambda: Scheduler(max_workers=8)),
        ("fixed 3 workers", lambda: Scheduler(max_workers=3)),
        ("adaptive (start 8)", lambda: Scheduler(max_workers=10, adaptive=True,
                                                 initial_workers=8)),
    ]:
        elapsed, server, failed = _run(factory(), cap=cap)
        outcomes[label] = failed
        rows.append([label,
                     "rejected" if failed else f"{elapsed * 1000:.0f} ms",
                     server.log.max_concurrency(),
                     len(server.log)])
    report(f"E8c: {REQUESTS} requests to a fragile server (cap {cap})",
           rows, ["scheduler", "outcome", "peak in-flight", "requests served"])
    # A fixed level above the cap overwhelms the server; the adaptive scheduler
    # backs off and completes the workload.
    assert outcomes["fixed 8 workers"] is True
    assert outcomes["adaptive (start 8)"] is False


def test_e8c_adaptive_settles_at_the_server_capability():
    scheduler = Scheduler(max_workers=10, adaptive=True, initial_workers=8)
    _, server, failed = _run(scheduler, cap=3)
    assert not failed
    report("E8c: adaptive level trajectory against a cap-3 server",
           [[", ".join(str(level) for level in scheduler.level_history)]],
           ["levels the window moved to"])
    assert scheduler.overload_events >= 1
    assert scheduler.level_history[-1] <= 3
    assert server.log.max_concurrency() <= 3
