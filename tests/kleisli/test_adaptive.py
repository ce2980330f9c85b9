"""Tests for adaptive concurrency (the paper's [43]: "techniques to
automatically adjust the level of concurrency based on the capability of
servers and on resource availability are being developed").

A window over a server that declared nothing moves only when the server
says no: it narrows to what the server admitted of the rejected window and
never widens again.
"""

import threading

import pytest

from repro.core.errors import RemoteSourceError
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.eval import EvalContext, Environment, Evaluator
from repro.core.optimizer.parallel import ParallelExt, make_parallel_rule_set
from repro.core.values import CSet
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.scheduler import MAX_RETRIES, Scheduler
from repro.net.remote import RemoteSource

from test_scheduler_prefetch import each, units

WAIT = 10.0  # a held request waits at most this long; reaching it fails


class FirstBurstServer:
    """A ``cap``-wide :class:`RemoteSource` that answers nothing until the
    first ``burst`` requests have all arrived — admitted or rejected — so a
    window of ``burst`` meets exactly ``burst - cap`` rejections, whatever
    the order the worker threads start in.  Later requests are answered at
    once."""

    def __init__(self, cap, burst):
        self.rejections = 0
        self._burst_rejected = burst - cap
        self._lock = threading.Lock()
        self._arrived = threading.Event()
        self.remote = RemoteSource("capped", lambda x: x + 1, latency=1.0,
                                   max_concurrent_requests=cap,
                                   sleeper=lambda _: self._arrived.wait(WAIT))

    def call(self, x):
        try:
            return self.remote.call(x)
        except RemoteSourceError:
            with self._lock:
                self.rejections += 1
                if self.rejections >= self._burst_rejected:
                    self._arrived.set()
            raise


def drain(scheduler, function, items):
    """Run a per-item ``function`` over ``items`` as one-unit tasks (a task
    is a list of work units); the replies, in order."""
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

    def test_backs_off_when_the_server_rejects_requests(self):
        server = RemoteSource("capped", lambda x: x + 1, latency=0.004,
                              max_concurrent_requests=3)
        scheduler = Scheduler(max_workers=8, adaptive=True)
        assert drain(scheduler, server.call, range(40)) == [x + 1 for x in range(40)]
        assert scheduler.overload_events >= 1
        assert scheduler.retries >= 1
        # Every request eventually succeeded and the server's own log confirms
        # its capacity was never exceeded after the backoff settled.
        assert server.log.max_concurrency() <= 3
        assert scheduler.level_history[-1] <= 3

    def test_rejection_ceiling_prevents_re_probing_a_rejected_level(self):
        server = FirstBurstServer(cap=2, burst=6)
        scheduler = Scheduler(max_workers=6, adaptive=True)
        drain(scheduler, server.call, range(40))
        assert scheduler.level_history == [2]
        assert scheduler.level == 2

    def test_persistent_rejection_raises_after_max_retries(self):
        def always_busy(_):
            raise RemoteSourceError("server busy")

        scheduler = Scheduler(max_workers=4, adaptive=True)
        with pytest.raises(RemoteSourceError):
            drain(scheduler, always_busy, range(6))
        assert scheduler.retries == MAX_RETRIES
        assert scheduler.level_history == [1]

    def test_non_overload_errors_propagate_immediately(self):
        def broken(_):
            raise ValueError("not an overload")

        scheduler = Scheduler(max_workers=3, adaptive=True)
        with pytest.raises(ValueError):
            drain(scheduler, broken, [1, 2, 3])
        assert scheduler.retries == 0

    def test_statistics_counters(self):
        scheduler = Scheduler(max_workers=3, adaptive=True)
        drain(scheduler, lambda x: x, range(10))
        assert scheduler.tasks_submitted == 10
        assert scheduler.retries == scheduler.overload_events == 0


class TestRejectionOnlyWindow:
    """The moving window's one rule, on a server that declared nothing."""

    @pytest.mark.parametrize("window", [5, 8])
    def test_narrows_to_what_the_server_admitted_in_one_step(self, window):
        server = FirstBurstServer(cap=3, burst=window)
        scheduler = Scheduler(max_workers=window, adaptive=True)
        assert drain(scheduler, server.call, range(40)) == \
            [x + 1 for x in range(40)]
        assert scheduler.level_history == [3]
        assert scheduler.overload_events == 1
        assert scheduler.retries == server.rejections == window - 3

    def test_a_ceiling_is_never_re_probed(self):
        """Once narrowed, the window never offers the server more: a long
        stream after the one rejection meets no other."""
        server = FirstBurstServer(cap=3, burst=8)
        scheduler = Scheduler(max_workers=8, adaptive=True)
        assert drain(scheduler, server.call, range(200)) == \
            [x + 1 for x in range(200)]
        assert scheduler.level_history == [3] and scheduler.level == 3
        assert server.rejections == 5
        assert server.remote.requests_admitted == 200
        assert server.remote.log.max_concurrency() <= 3

    def test_a_rejection_past_the_retries_reaches_the_caller(self):
        attempts = []

        def reject_seven(x):
            if x == 7:
                attempts.append(x)
                raise RemoteSourceError("S", "overloaded")
            return x

        scheduler = Scheduler(max_workers=4, adaptive=True)
        with pytest.raises(RemoteSourceError):
            drain(scheduler, reject_seven, range(12))
        assert len(attempts) == 1 + MAX_RETRIES
        assert scheduler.retries == MAX_RETRIES


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
        """The loop the rule builds when REMOTE declared nothing (moving) or
        declared a cap of 8 (fixed)."""
        scan = A.Scan("REMOTE", {"db": "na"}, {"select": B.project(B.var("x"), "acc")})
        body = B.singleton(B.record(acc=B.project(B.var("x"), "acc"),
                                    hits=B.prim("count", scan)))
        expr = B.ext("x", body, B.var("OUTER"))
        declared = None if adaptive else 8
        rule_set = make_parallel_rule_set(lambda driver: driver == "REMOTE",
                                          max_workers=4,
                                          concurrency_of=lambda _: declared)
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


class _UndeclaredServerDriver(Driver):
    """``{"key": n}`` -> ``{n}`` through a server with a cap it never
    declares: no ``remote`` attribute, so the engine builds no gate and the
    optimizer plans a moving window."""

    def __init__(self, server):
        super().__init__("quiet")
        self.server = server

    def _execute(self, request):
        return CSet([self.server.call(request["key"]) - 1])


class TestUndeclaredServerInTheEngine:
    KEYS = 40

    def _engine(self, window):
        engine = KleisliEngine()
        server = FirstBurstServer(cap=3, burst=window)
        engine.register_driver(_UndeclaredServerDriver(server), latency=0.01)
        return engine, server

    def _loop(self):
        scan = A.Scan("quiet", {}, args={"key": B.var("x")}, kind="set")
        return B.ext("x", scan, A.Const(CSet(range(self.KEYS))))

    def test_the_planned_loop_moves_and_completes(self):
        engine, server = self._engine(window=5)
        plan = engine.compile(self._loop())
        assert isinstance(plan, ParallelExt)
        assert (plan.adaptive, plan.max_workers) == (True, 5)
        assert engine.execute(plan, optimize=False) == CSet(range(self.KEYS))
        assert engine.driver_gates == {}
        assert server.rejections == 2
        assert server.remote.requests_admitted == self.KEYS

    def test_the_same_loop_pinned_fails(self):
        """The premise: a pinned window of five overruns the cap-3 server."""
        engine, _ = self._engine(window=5)
        plan = engine.compile(self._loop())
        pinned = ParallelExt(plan.var, plan.body, plan.source, plan.kind,
                             plan.max_workers, adaptive=False)
        with pytest.raises(RemoteSourceError):
            engine.execute(pinned, optimize=False)
