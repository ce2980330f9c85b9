"""E8c — adaptive concurrency ([43]): a window that moves only when the server says no.

Paper claim (Section 4, closing paragraph): a fixed level of concurrency must
be chosen against the server's capacity — too high overwhelms it; *"techniques
to automatically adjust the level of concurrency based on the capability of
servers and on resource availability are being developed"* [43].

A server that declares its cap is taken at its word (the loop is pinned at
the cap, the engine's per-driver gate holds every request under it), so the
question only arises for a server that declares nothing.  This benchmark
runs the engine's own plan for a remote loop — 40 requests at 10 ms — over
such a server, in three arms, alternating, ``RUNS`` times each:

* **pinned 5** — the paper's "say five", fixed;
* **pinned 5 + retry** — the same, with ``RetryPolicy(max_attempts=5)`` on
  the driver, the resilience layer's answer to a rejection;
* **moving** — what the optimizer plans for an undeclared server: a window
  of five that narrows to what the server admitted on each rejection.

Against a cap-3 server the pinned window fails, retries complete it slowly,
and the moving window completes it near the cap's own pace.  Against a
capable (cap-16) server nothing is rejected and the moving window must cost
nothing over the pinned one.  Each row reports the median wall time (and
its quartiles), failed runs, and per run the median narrowings
(``overload_events``), retries (the scheduler's re-issues plus the
resilience layer's) and requests the server served.
"""

import statistics
import time
from dataclasses import dataclass
from typing import List

import pytest

from repro.core.errors import RemoteSourceError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.optimizer.parallel import ParallelExt
from repro.core.values import CSet
from repro.kleisli import scheduler as scheduler_module
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.resilience import RetryPolicy
from repro.net.remote import RemoteSource

from conftest import report, update_summary

LATENCY = 0.01
REQUESTS = 40
RUNS = 10
WIDTH = 5  # OptimizerConfig.parallel_max_workers: the paper's "say five"
ARMS = ("pinned 5", "pinned 5 + retry", "moving")


class UndeclaredServerDriver(Driver):
    """``{"key": n}`` -> ``{n}`` through a server with a cap it never
    declares: no ``remote`` attribute, so the engine builds no gate."""

    def __init__(self, cap: int):
        super().__init__("GenBank")
        self.server = RemoteSource("GenBank", lambda key: key, latency=LATENCY,
                                   max_concurrent_requests=cap)

    def _execute(self, request):
        return CSet([self.server.call(request["key"])])


@dataclass
class Outcome:
    elapsed: float
    failed: bool
    overload_events: int
    retries: int
    served: int


@pytest.fixture
def schedulers(monkeypatch):
    """Every scheduler a run builds (a parallel loop builds its own)."""
    made: List[scheduler_module.Scheduler] = []

    class Recording(scheduler_module.Scheduler):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(scheduler_module, "Scheduler", Recording)
    return made


def _run_once(cap: int, arm: str, schedulers: list) -> Outcome:
    engine = KleisliEngine()
    driver = engine.register_driver(UndeclaredServerDriver(cap), latency=LATENCY)
    if arm == "pinned 5 + retry":
        engine.configure_resilience("GenBank", retry=RetryPolicy(max_attempts=5))
    loop = B.ext("x", A.Scan("GenBank", {}, args={"key": B.var("x")}, kind="set"),
                 A.Const(CSet(range(REQUESTS))))
    plan = engine.compile(loop)
    # What the optimizer plans for a server that declared nothing.
    assert isinstance(plan, ParallelExt)
    assert (plan.adaptive, plan.max_workers) == (True, WIDTH)
    if arm != "moving":
        plan = ParallelExt(plan.var, plan.body, plan.source, plan.kind,
                           plan.max_workers, adaptive=False)
    del schedulers[:]
    started = time.perf_counter()
    try:
        failed = engine.execute(plan, optimize=False) != CSet(range(REQUESTS))
    except RemoteSourceError:
        failed = True
    elapsed = time.perf_counter() - started
    return Outcome(
        elapsed, failed,
        overload_events=sum(s.overload_events for s in schedulers),
        retries=engine.last_eval_statistics.retries
        + sum(s.retries for s in schedulers),
        served=driver.server.request_count)


def _alternating(cap: int, arms, schedulers) -> dict:
    outcomes = {arm: [] for arm in arms}
    for _ in range(RUNS):
        for arm in arms:
            outcomes[arm].append(_run_once(cap, arm, schedulers))
    return outcomes


def _median_ms(runs) -> float:
    return statistics.median(run.elapsed for run in runs) * 1000


def _report(cap: int, outcomes: dict) -> dict:
    rows, summary = [], {}
    for arm, runs in outcomes.items():
        q1, median, q3 = statistics.quantiles(
            [run.elapsed * 1000 for run in runs], n=4)
        failures = sum(run.failed for run in runs)
        row = {
            "median_ms": round(_median_ms(runs), 1),
            "iqr_ms": [round(q1, 1), round(q3, 1)],
            "failed_runs": failures,
            "overload_events": statistics.median(r.overload_events for r in runs),
            "retries": statistics.median(r.retries for r in runs),
            "served": statistics.median(r.served for r in runs),
        }
        summary[arm] = row
        rows.append([arm, f"{row['median_ms']:.1f} ms",
                     f"{row['iqr_ms'][0]:.1f}-{row['iqr_ms'][1]:.1f}",
                     f"{failures}/{RUNS}", row["overload_events"],
                     row["retries"], row["served"]])
    report(f"E8c: {REQUESTS} requests at {LATENCY * 1000:.0f} ms to an undeclared "
           f"cap-{cap} server, {RUNS} alternating runs",
           rows, ["window", "median", "quartiles", "failed", "narrowings",
                  "retries", "served"])
    update_summary("BENCH_adaptive_concurrency.json", f"cap_{cap}", summary)
    return summary


def test_e8c_fragile_server(schedulers):
    """Cap 3: pinned 5 is rejected, retries finish it slowly, the moving
    window narrows once and finishes it at the cap's pace."""
    outcomes = _alternating(3, ARMS, schedulers)
    _report(3, outcomes)
    moving = outcomes["moving"]
    assert not any(run.failed for run in moving)
    assert all(run.served == REQUESTS for run in moving)
    assert all(run.overload_events >= 1 for run in moving)
    assert any(run.failed for run in outcomes["pinned 5"])
    assert _median_ms(moving) < _median_ms(outcomes["pinned 5 + retry"])


def test_e8c_capable_server(schedulers):
    """Cap 16: nothing is rejected, and the moving window costs nothing."""
    outcomes = _alternating(16, ("pinned 5", "moving"), schedulers)
    _report(16, outcomes)
    for runs in outcomes.values():
        assert not any(run.failed for run in runs)
        assert all(run.overload_events == run.retries == 0 for run in runs)
    assert _median_ms(outcomes["moving"]) <= 1.1 * _median_ms(outcomes["pinned 5"])
