"""Tests for adaptive concurrency (the paper's [43]: "techniques to
automatically adjust the level of concurrency based on the capability of
servers and on resource availability are being developed")."""

import itertools
import threading
import time

import pytest

from repro.core.errors import RemoteSourceError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.eval import EvalContext, Environment, Evaluator
from repro.core.optimizer.parallel import ParallelExt, make_parallel_rule_set
from repro.core.values import CSet
from repro.kleisli.scheduler import AdaptiveScheduler, BoundedScheduler
from repro.net.remote import RemoteSource


class TestAdaptiveSchedulerPolicy:
    def test_empty_input(self):
        assert AdaptiveScheduler().map(lambda x: x, []) == []

    def test_results_preserve_order(self):
        scheduler = AdaptiveScheduler(max_workers=4)
        assert scheduler.map(lambda x: x * x, list(range(25))) == [x * x for x in range(25)]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AdaptiveScheduler(max_workers=0)
        with pytest.raises(ValueError):
            AdaptiveScheduler(max_workers=2, initial_workers=5)
        with pytest.raises(ValueError):
            AdaptiveScheduler(degradation_threshold=0.9)

    def test_ramps_up_against_a_capable_server(self):
        # A capable server answers a batch of any width in the same 10 ms.
        # ``map`` reads the clock once before and once after a batch, so a
        # clock that steps 10 ms per reading *is* that server — no sleeps, and
        # no dependence on how the box schedules the worker threads.
        readings = itertools.count()
        scheduler = AdaptiveScheduler(max_workers=6, initial_workers=1,
                                      clock=lambda: next(readings) * 0.01)
        results = scheduler.map(lambda x: x * 2, list(range(36)))
        assert results == [x * 2 for x in range(36)]
        assert max(scheduler.level_history) == 6
        # The ramp is monotone while throughput keeps improving.
        assert scheduler.level_history[:3] == [1, 2, 3]

    def test_backs_off_when_the_server_rejects_requests(self):
        server = RemoteSource("capped", lambda x: x + 1, latency=0.004,
                              max_concurrent_requests=3)
        scheduler = AdaptiveScheduler(max_workers=10, initial_workers=8)
        results = scheduler.map(server.call, list(range(40)))
        assert results == [x + 1 for x in range(40)]
        assert scheduler.overload_events >= 1
        assert scheduler.retries >= 1
        # Every request eventually succeeded and the server's own log confirms
        # its capacity was never exceeded after the backoff settled.
        assert server.log.max_concurrency() <= 3
        assert scheduler.level_history[-1] <= 3

    def test_rejection_ceiling_prevents_re_probing_a_rejected_level(self):
        server = RemoteSource("capped", lambda x: x, latency=0.002,
                              max_concurrent_requests=2)
        scheduler = AdaptiveScheduler(max_workers=8, initial_workers=6)
        scheduler.map(server.call, list(range(40)))
        rejected_at = scheduler.level_history[0]
        settled = scheduler.level_history[scheduler.level_history.index(
            max(1, rejected_at // 2)) + 1:]
        assert all(level < rejected_at for level in settled)

    def test_persistent_rejection_raises_after_max_retries(self):
        def always_busy(_):
            raise RemoteSourceError("server busy")

        scheduler = AdaptiveScheduler(max_workers=4, initial_workers=2, max_retries=2)
        with pytest.raises(RemoteSourceError):
            scheduler.map(always_busy, list(range(6)))

    def test_non_overload_errors_propagate_immediately(self):
        def broken(_):
            raise ValueError("not an overload")

        scheduler = AdaptiveScheduler(max_workers=3)
        with pytest.raises(ValueError):
            scheduler.map(broken, [1, 2, 3])
        assert scheduler.retries == 0

    def test_degrading_server_caps_the_level(self):
        """A server whose latency grows with load should stop the ramp well
        below the pool maximum."""
        lock = threading.Lock()
        in_flight = [0]

        def degrading(x):
            with lock:
                in_flight[0] += 1
                load = in_flight[0]
            time.sleep(0.004 * load)
            with lock:
                in_flight[0] -= 1
            return x

        scheduler = AdaptiveScheduler(max_workers=12, initial_workers=1,
                                      degradation_threshold=1.3)
        results = scheduler.map(degrading, list(range(48)))
        assert results == list(range(48))
        assert max(scheduler.level_history) < 12

    def test_plateau_probing_escapes_a_slow_first_batch(self):
        # First call is artificially slow (cold cache); the scheduler must not
        # stay pinned at one worker forever.
        calls = []

        def handler(x):
            if not calls:
                calls.append(x)
                time.sleep(0.05)
            else:
                time.sleep(0.005)
            return x

        scheduler = AdaptiveScheduler(max_workers=4, initial_workers=1)
        scheduler.map(handler, list(range(30)))
        assert max(scheduler.level_history) >= 2

    def test_statistics_counters(self):
        scheduler = AdaptiveScheduler(max_workers=3)
        scheduler.map(lambda x: x, list(range(10)))
        assert scheduler.tasks_submitted == 10
        assert scheduler.batches == len(scheduler.level_history)
        assert sum(1 for _ in scheduler.level_history) >= 10 // 3


class TestBoundedVersusAdaptive:
    def test_bounded_scheduler_never_exceeds_cap(self):
        server = RemoteSource("s", lambda x: x, latency=0.003, max_concurrent_requests=5)
        BoundedScheduler(max_workers=5).map(server.call, list(range(25)))
        assert server.log.max_concurrency() <= 5

    def test_adaptive_matches_bounded_results(self):
        items = list(range(40))
        server = RemoteSource("s", lambda x: x % 7, latency=0.002,
                              max_concurrent_requests=16)
        bounded = BoundedScheduler(max_workers=4).map(server.call, items)
        adaptive = AdaptiveScheduler(max_workers=4).map(server.call, items)
        assert bounded == adaptive


class TestAdaptiveParallelExt:
    def _remote_loop(self, adaptive):
        scan = A.Scan("REMOTE", {"db": "na"}, {"select": B.project(B.var("x"), "acc")})
        body = B.singleton(B.record(acc=B.project(B.var("x"), "acc"),
                                    hits=B.prim("count", scan)))
        expr = B.ext("x", body, B.var("OUTER"))
        rule_set = make_parallel_rule_set(lambda driver: driver == "REMOTE",
                                          max_workers=4, adaptive=adaptive)
        return rule_set.apply(expr)

    def test_rule_set_propagates_the_adaptive_flag(self):
        assert self._remote_loop(adaptive=True).adaptive is True
        assert self._remote_loop(adaptive=False).adaptive is False

    def test_adaptive_flag_is_part_of_structural_identity(self):
        fixed = self._remote_loop(adaptive=False)
        adaptive = self._remote_loop(adaptive=True)
        assert fixed != adaptive

    def _run(self, expr, source_rows, latency=0.004, cap=8):
        server = RemoteSource("REMOTE", lambda request: CSet([request["select"]]),
                              latency=latency, max_concurrent_requests=cap)

        def executor(driver, request):
            return server.call(request)

        context = EvalContext(driver_executor=executor)
        value = Evaluator(context).evaluate(expr, Environment({"OUTER": source_rows}))
        return value, server

    def test_adaptive_and_fixed_evaluation_agree(self):
        from repro.core.values import Record

        rows = CSet([Record({"acc": f"M{i:03}"}) for i in range(20)])
        fixed_value, _ = self._run(self._remote_loop(adaptive=False), rows)
        adaptive_value, server = self._run(self._remote_loop(adaptive=True), rows)
        assert fixed_value == adaptive_value
        assert server.request_count == 20
