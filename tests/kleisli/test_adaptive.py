"""Tests for adaptive concurrency (the paper's [43]: "techniques to
automatically adjust the level of concurrency based on the capability of
servers and on resource availability are being developed")."""

import threading
import time

import pytest

from repro.core.errors import RemoteSourceError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.eval import EvalContext, Environment, Evaluator
from repro.core.optimizer.parallel import ParallelExt, make_parallel_rule_set
from repro.core.values import CSet
from repro.kleisli.scheduler import Scheduler
from repro.net.remote import RemoteSource

from test_scheduler_prefetch import ThreadLocalClock, each, units


def drain(scheduler, function, items):
    """Run a per-item ``function`` over ``items`` as one-unit tasks (a task
    is a list of work units); the replies, in order.  Joins the pool."""
    with scheduler:
        return list(scheduler.prefetch(each(function), units(items)))


class TestAdaptiveSchedulerPolicy:
    def test_empty_input(self):
        assert drain(Scheduler(adaptive=True), lambda x: x, []) == []

    def test_results_preserve_order(self):
        scheduler = Scheduler(max_workers=4, adaptive=True)
        assert drain(scheduler, lambda x: x * x, range(25)) == [x * x for x in range(25)]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Scheduler(max_workers=0, adaptive=True)
        with pytest.raises(ValueError):
            Scheduler(max_workers=2, adaptive=True, initial_workers=5)
        with pytest.raises(ValueError):
            Scheduler(adaptive=True, degradation_threshold=0.9)

    def test_ramps_up_against_a_capable_server(self):
        # A capable server answers every request in the same 10 ms however
        # many are in flight.  Each worker's own timeline steps 10 ms per
        # request, so the samples *are* that server — no sleeps, and no
        # dependence on how the box schedules the worker threads.
        clock = ThreadLocalClock()

        def capable(x):
            clock.advance(0.01)
            return x * 2

        scheduler = Scheduler(max_workers=6, adaptive=True, initial_workers=1,
                              clock=clock)
        assert drain(scheduler, capable, range(36)) == [x * 2 for x in range(36)]
        # The ramp is monotone while throughput keeps improving.
        assert scheduler.level_history == [2, 3, 4, 5, 6]

    def test_backs_off_when_the_server_rejects_requests(self):
        server = RemoteSource("capped", lambda x: x + 1, latency=0.004,
                              max_concurrent_requests=3)
        scheduler = Scheduler(max_workers=10, adaptive=True, initial_workers=8)
        assert drain(scheduler, server.call, range(40)) == [x + 1 for x in range(40)]
        assert scheduler.overload_events >= 1
        assert scheduler.retries >= 1
        # Every request eventually succeeded and the server's own log confirms
        # its capacity was never exceeded after the backoff settled.
        assert server.log.max_concurrency() <= 3
        assert scheduler.level_history[-1] <= 3

    def test_rejection_ceiling_prevents_re_probing_a_rejected_level(self):
        server = RemoteSource("capped", lambda x: x, latency=0.002,
                              max_concurrent_requests=2)
        rejected_at = 6
        scheduler = Scheduler(max_workers=8, adaptive=True,
                              initial_workers=rejected_at)
        drain(scheduler, server.call, range(40))
        assert scheduler.level_history[0] == rejected_at // 2
        assert all(level < rejected_at for level in scheduler.level_history)

    def test_persistent_rejection_raises_after_max_retries(self):
        def always_busy(_):
            raise RemoteSourceError("server busy")

        scheduler = Scheduler(max_workers=4, adaptive=True, initial_workers=2,
                              max_retries=2)
        with pytest.raises(RemoteSourceError):
            drain(scheduler, always_busy, range(6))

    def test_non_overload_errors_propagate_immediately(self):
        def broken(_):
            raise ValueError("not an overload")

        scheduler = Scheduler(max_workers=3, adaptive=True)
        with pytest.raises(ValueError):
            drain(scheduler, broken, [1, 2, 3])
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

        scheduler = Scheduler(max_workers=12, adaptive=True, initial_workers=1,
                              degradation_threshold=1.3)
        assert drain(scheduler, degrading, range(48)) == list(range(48))
        assert max(scheduler.level_history) < 12

    def test_plateau_probing_escapes_a_slow_first_window(self):
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

        scheduler = Scheduler(max_workers=4, adaptive=True, initial_workers=1)
        drain(scheduler, handler, range(30))
        assert max(scheduler.level_history) >= 2

    def test_statistics_counters(self):
        scheduler = Scheduler(max_workers=3, adaptive=True)
        drain(scheduler, lambda x: x, range(10))
        assert scheduler.tasks_submitted == 10
        assert scheduler.retries == scheduler.overload_events == 0


class TestPinnedVersusAdaptive:
    def test_pinned_scheduler_never_exceeds_cap(self):
        server = RemoteSource("s", lambda x: x, latency=0.003, max_concurrent_requests=5)
        drain(Scheduler(max_workers=5), server.call, range(25))
        assert server.log.max_concurrency() <= 5

    def test_adaptive_matches_pinned_results(self):
        server = RemoteSource("s", lambda x: x % 7, latency=0.002,
                              max_concurrent_requests=16)
        pinned = drain(Scheduler(max_workers=4), server.call, range(40))
        adaptive = drain(Scheduler(max_workers=4, adaptive=True),
                         server.call, range(40))
        assert pinned == adaptive


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
