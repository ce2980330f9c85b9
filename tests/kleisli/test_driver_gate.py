"""The per-driver in-flight gate: concurrency is bounded per *server*.

"The server S may only be able to handle a limited number of requests at a
time, say five."  A ``ParallelExt`` bounds one loop; nested loops and
concurrent sessions multiply that bound, and a :class:`RemoteSource` *raises*
past its cap.  The engine therefore holds one gate per driver that declared
``remote.max_concurrent_requests``, at the dispatch choke point: requests past
the cap wait, and a waiter notices its run's cancellation or deadline.  A
driver with no declaration has no gate and dispatches exactly as before.
"""

import sys
import threading

import pytest

from repro.core.errors import (
    DeadlineExceededError,
    DriverError,
    QueryCancelledError,
    RemoteSourceError,
    SQLExecutionError,
    TransientDriverError,
)
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.compile import term_fingerprint
from repro.core.optimizer import OptimizerConfig
from repro.core.optimizer.parallel import ParallelExt
from repro.core.values import CSet
from repro.kleisli import engine as engine_module
from repro.kleisli.drivers import RelationalDriver
from repro.kleisli.drivers.base import Driver
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.governance import CancellationToken
from repro.kleisli.resilience import CircuitBreakerPolicy, RetryPolicy
from repro.kleisli.session import Session
from repro.net.remote import RemoteSource
from repro.relational import Database

CAP = 5
WAIT = 10.0  # every join/wait below is bounded; reaching it is a failure


class CappedDriver(Driver):
    """``{"key": n}`` -> ``{n}`` through a :class:`RemoteSource` with a cap."""

    def __init__(self, name="S", cap=CAP, latency=0.002, handler=None):
        super().__init__(name)
        self.remote = RemoteSource(name, handler or (lambda key: CSet([key])),
                                   latency=latency, max_concurrent_requests=cap)

    def _execute(self, request):
        return self.remote.call(request["key"])


class UndeclaredDriver(Driver):
    """The same requests over a server that says nothing about itself."""

    def _execute(self, request):
        return CSet([request["key"]])


def _scan(key, driver="S"):
    return A.Scan(driver, {}, args={"key": key}, kind="set")


def _nested_fan_out(outer=6, inner=6, width=5):
    """``width`` x ``width`` workers over one capped server: 25 wide at the
    default, 36 (every key at once) at 16, without a server bound."""
    body = ParallelExt("y", _scan(B.prim("add", B.prim("mul", B.var("x"), B.const(100)),
                                         B.var("y"))),
                       A.Const(CSet(range(inner))), "set", max_workers=width)
    return ParallelExt("x", body, A.Const(CSet(range(outer))), "set", max_workers=width)


def _run_threads(targets):
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(WAIT)
    assert not any(thread.is_alive() for thread in threads)


class TestServerCap:
    # Loops as wide as the server (what the planner plans): 4 runs of up to
    # 16 x 16 workers, 144 requests, over 16 slots.
    @pytest.mark.parametrize("cap", [CAP, 16])
    def test_two_sessions_of_nested_parallel_loops_stay_under_the_cap(self, cap):
        engine = KleisliEngine()
        driver = engine.register_driver(CappedDriver(cap=cap))
        sessions = [Session(engine=engine), Session(engine=engine)]
        expected = CSet(x * 100 + y for x in range(6) for y in range(6))
        fan_out = _nested_fan_out(width=cap)
        outcomes = []

        def run(session):
            try:
                outcomes.append(session.engine.execute(fan_out, optimize=False))
            except Exception as error:  # noqa: BLE001 - reported below
                outcomes.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_threads([lambda s=s: run(s) for s in sessions] * 2)
        finally:
            sys.setswitchinterval(interval)

        assert outcomes == [expected] * 4, outcomes  # no RemoteSourceError
        assert len(driver.remote.log) == 4 * 36  # no request lost or retried
        assert 1 < driver.remote.log.max_concurrency() <= cap
        assert engine.driver_gates["S"].in_flight == 0

    def test_without_the_gate_the_same_plan_overruns_the_server(self):
        """The premise: the source rejects what the loops alone let through."""
        engine = KleisliEngine()
        engine.register_driver(CappedDriver(latency=0.01))
        del engine.driver_gates["S"]
        with pytest.raises(RemoteSourceError):
            engine.execute(_nested_fan_out(), optimize=False)

    @pytest.mark.parametrize("cap,configured,workers", [
        (3, 5, 3),    # a narrow server narrows the loop
        (12, 5, 12),  # a wide one widens it: the configuration is only the
        (12, 2, 12),  # width for a server that declares nothing
    ])
    def test_planner_keeps_the_fan_out_within_cap_and_configuration(
            self, cap, configured, workers):
        engine = KleisliEngine(OptimizerConfig(parallel_max_workers=configured))
        engine.register_driver(CappedDriver(cap=cap))
        loop = B.ext("x", _scan(B.var("x")), A.Const(CSet(range(40))))
        assert engine.compile(loop).max_workers == workers
        engine.unregister_driver("S")
        assert engine.driver_gates == {}


class TestLoopWidth:
    """A remote loop is as wide as the servers its body calls say they are;
    ``parallel_max_workers`` speaks for a server that says nothing."""

    @staticmethod
    def _loop(*drivers):
        body = _scan(B.var("x"), drivers[0])
        for driver in drivers[1:]:
            body = B.union(body, _scan(B.var("x"), driver), "set")
        return B.ext("x", body, A.Const(CSet(range(40))))

    @pytest.mark.parametrize("called,workers", [
        (["quiet"], 4),            # nothing declared: the configured width
        (["S3", "S16"], 3),        # the narrowest server in the body
        (["S16", "S3"], 3),
        (["S16"], 16),
        (["S16", "quiet"], 4),     # the configuration stands in for "quiet"
    ])
    def test_the_narrowest_server_in_the_body_sizes_the_loop(self, called, workers):
        engine = KleisliEngine(OptimizerConfig(parallel_max_workers=4))
        engine.register_driver(CappedDriver("S3", cap=3))
        engine.register_driver(CappedDriver("S16", cap=16))
        engine.register_driver(UndeclaredDriver("quiet"), latency=0.002)
        plan = engine.compile(self._loop(*called))
        assert isinstance(plan, ParallelExt) and plan.max_workers == workers

    @pytest.mark.parametrize("planning", [True, False],
                             ids=["planning", "no-planning"])
    @pytest.mark.parametrize("called,moving", [
        (["S16"], False),          # every server declared: fixed
        (["S3", "S16"], False),
        (["quiet"], True),         # nothing declared: the window moves
        (["S16", "quiet"], True),  # one undeclared server is enough
    ])
    def test_declarations_decide_fixed_or_moving(self, called, moving,
                                                 planning):
        """Fixed or moving is a fact about the servers, not a cost choice:
        the same with the planner consulted or not."""
        engine = KleisliEngine(OptimizerConfig(planning=planning))
        engine.register_driver(CappedDriver("S3", cap=3))
        engine.register_driver(CappedDriver("S16", cap=16))
        engine.register_driver(UndeclaredDriver("quiet"), latency=0.002)
        plan = engine.compile(self._loop(*called))
        assert isinstance(plan, ParallelExt) and plan.adaptive is moving

    def test_a_fixed_loop_surfaces_a_server_fault_unretried(self):
        """A loop over declared servers is pinned: an injected fault reaches
        the caller, the scheduler re-issues nothing, and the only retries
        are the ones a configured :class:`RetryPolicy` books."""
        outcomes = []
        for policy in (None, RetryPolicy(max_attempts=4, backoff_base=0.0)):
            engine = KleisliEngine()
            driver = engine.register_driver(CappedDriver(cap=4))
            driver.remote.failure_rate = 0.25  # every 4th admitted request
            if policy is not None:
                engine.configure_resilience("S", retry=policy)
            plan = engine.compile(self._loop("S"))
            assert (plan.adaptive, plan.max_workers) == (False, 4)
            try:
                value = engine.execute(plan, optimize=False)
            except RemoteSourceError:
                value = None
            books = engine.health()["resilience"].get("S", {})
            outcomes.append((value, driver.remote.faults_injected,
                             driver.remote.requests_admitted,
                             books.get("retries", 0)))
            assert all(gate.in_flight == 0
                       for gate in engine.driver_gates.values())
        (bare, bare_faults, bare_admitted, bare_retries), \
            (retried, faults, admitted, retries) = outcomes
        assert bare is None and bare_faults >= 1 and bare_retries == 0
        # The fourth request fails; at most three were admitted before it and
        # three more while the replies ahead of it were consumed — none twice.
        assert bare_admitted <= 3 + 1 + 3
        assert retried == CSet(range(40))
        assert retries == faults and admitted == 40 + faults

    def test_another_cap_is_another_plan_and_another_compiled_form(self):
        """The width is baked into the term: re-registering the driver with
        another cap misses the compile LRU, and the new form is kept from its
        second lowering on, as any form is."""
        engine = KleisliEngine()
        lowered = engine._compiled_queries
        seen = []
        for cap in (4, 16, 16, 16):
            engine.register_driver(CappedDriver(cap=cap))
            plan = engine.compile(self._loop("S"))
            misses = lowered.misses
            assert engine.execute(plan, optimize=False) == CSet(range(40))
            seen.append((plan.max_workers, lowered.misses - misses,
                         term_fingerprint(plan)))
        assert [(width, missed) for width, missed, _ in seen] == \
            [(4, 1), (16, 1), (16, 1), (16, 0)]
        assert seen[0][2] != seen[1][2] == seen[2][2] == seen[3][2]


class FlakyCursorDriver(CappedDriver):
    """Key ``"rows"``: a lazy cursor over six rows that dies after three on
    its first issue (any other key answers like :class:`CappedDriver`)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.issues = 0

    def _execute(self, request):
        answer = self.remote.call(request["key"])
        if request["key"] != "rows":
            return answer
        self.issues += 1
        first = self.issues == 1

        def cursor():
            for i in range(6):
                if first and i == 3:
                    raise TransientDriverError("the cursor dropped")
                yield i

        return cursor()


class _Blocked:
    """An engine whose one-slot server is held by a request parked in the
    handler, so that whoever comes next waits at the gate."""

    def __init__(self, driver=CappedDriver):
        self.release = threading.Event()
        self.entered = threading.Event()
        self.engine = KleisliEngine()

        def handler(key):
            if key == "hold":
                self.entered.set()
                assert self.release.wait(WAIT)
            if key == "fail":
                raise DriverError("the server said no")
            return CSet([key])

        self.driver = self.engine.register_driver(
            driver(cap=1, latency=0.0, handler=handler))
        self.gate = self.engine.driver_gates["S"]
        self.holder = threading.Thread(
            target=self.engine.execute, args=(_scan(B.const("hold")),),
            kwargs={"optimize": False})

    def __enter__(self):
        self.holder.start()
        assert self.entered.wait(WAIT)
        assert self.gate.in_flight == 1
        return self

    def __exit__(self, *exc_info):
        self.release.set()
        self.holder.join(WAIT)
        assert not self.holder.is_alive()
        # Quiescence: whatever happened to the waiters, every slot is back.
        assert self.gate.in_flight == 0
        assert self.engine.execute(_scan(B.const("after")), optimize=False) == CSet(["after"])
        assert self.gate.in_flight == 0


class TestWaitingAtTheGate:
    def test_cancel_while_waiting_raises_and_holds_no_slot(self):
        with _Blocked() as blocked:
            token = CancellationToken()
            errors = []

            def waiter():
                try:
                    blocked.engine.execute(_scan(B.const("late")), optimize=False,
                                           cancellation=token)
                except QueryCancelledError as error:
                    errors.append(error)

            thread = threading.Thread(target=waiter)
            thread.start()
            thread.join(0.1)
            assert thread.is_alive(), "the waiter should be queued behind the held slot"
            token.cancel("test: cancelled in the queue")
            thread.join(WAIT)
            assert not thread.is_alive() and len(errors) == 1
            assert blocked.gate.in_flight == 1  # only the holder
            assert len(blocked.driver.remote.log) == 0  # the waiter never reached the server

    def test_deadline_while_waiting_is_terminal(self):
        with _Blocked() as blocked:
            with pytest.raises(DeadlineExceededError):
                blocked.engine.execute(_scan(B.const("late")), optimize=False, deadline=0.05)
            assert blocked.gate.in_flight == 1

    def test_waiter_proceeds_when_the_slot_frees(self):
        with _Blocked() as blocked:
            results = []
            thread = threading.Thread(target=lambda: results.append(
                blocked.engine.execute(_scan(B.const("next")), optimize=False)))
            thread.start()
            thread.join(0.1)
            assert thread.is_alive()
            blocked.release.set()
            thread.join(WAIT)
            assert results == [CSet(["next"])]

    def test_failing_request_releases_its_slot_to_the_waiters(self):
        blocked = _Blocked()
        with pytest.raises(DriverError):
            blocked.engine.execute(_scan(B.const("fail")), optimize=False)
        assert blocked.gate.in_flight == 0
        with blocked:
            pass


class TestEveryAttemptAtTheGate:
    """The first dispatch, each retry and each mid-stream re-issue hold one
    slot for their round trip; the backoff between them holds none."""

    def test_a_midstream_reissue_waits_for_the_slot(self):
        blocked = _Blocked(FlakyCursorDriver)
        engine, gate = blocked.engine, blocked.gate
        engine.configure_resilience(
            "S", retry=RetryPolicy(max_attempts=3, backoff_base=0.0))
        stream = engine.stream(_scan(B.const("rows")), optimize=False)
        delivered = [next(stream) for _ in range(3)]
        assert gate.in_flight == 0  # the first issue returned its slot
        rest = []
        consumer = threading.Thread(target=lambda: rest.extend(stream))
        with blocked:
            consumer.start()
            consumer.join(0.1)
            assert consumer.is_alive(), "the re-issue should wait for the slot"
            assert blocked.driver.issues == 1
            blocked.release.set()
            consumer.join(WAIT)
            assert not consumer.is_alive()
        assert delivered + rest == list(range(6))
        assert blocked.driver.issues == 2
        assert blocked.driver.remote.log.max_concurrency() == 1
        assert gate.in_flight == 0
        books = engine.health()["resilience"]["S"]
        assert (books["midstream_faults"], books["recoveries"]) == (1, 1)

    def test_a_backoff_holds_no_slot(self):
        calls = []

        def handler(key):
            calls.append(key)
            if len(calls) == 1:
                raise TransientDriverError("try again")
            return CSet([key])

        engine = KleisliEngine()
        engine.register_driver(CappedDriver(cap=1, latency=0.0, handler=handler))
        gate = engine.driver_gates["S"]
        held_while_sleeping = []
        engine.resilience.sleeper = lambda delay: held_while_sleeping.append(
            gate.in_flight)
        engine.configure_resilience(
            "S", retry=RetryPolicy(max_attempts=2, backoff_base=0.01))
        assert engine.execute(_scan(B.const(7)), optimize=False) == CSet([7])
        assert calls == [7, 7]
        assert held_while_sleeping == [0]
        assert gate.in_flight == 0

    def test_waiting_for_the_slot_books_nothing_on_the_breaker(self):
        """A request that ran out of time at the gate never reached the
        server: no failure, no breaker outcome, no retry."""
        with _Blocked() as blocked:
            engine = blocked.engine
            engine.configure_resilience(
                "S", retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
                breaker=CircuitBreakerPolicy(failure_threshold=1))
            with pytest.raises(DeadlineExceededError):
                engine.execute(_scan(B.const("late")), optimize=False,
                               deadline=0.05)
            books = engine.health()["resilience"]["S"]
            assert (books["failures"], books["retries"]) == (0, 0)
            assert books["breaker"]["state"] == "closed"
            assert books["breaker"]["failures"] == 0

    def test_waiting_for_the_slot_is_not_the_request_time(self):
        with _Blocked() as blocked:
            engine = blocked.engine
            engine.configure_resilience(
                "S", retry=RetryPolicy(max_attempts=1, request_timeout=0.05))
            outcomes = []

            def waiter():
                try:
                    outcomes.append(engine.execute(_scan(B.const("next")),
                                                   optimize=False))
                except Exception as error:  # noqa: BLE001 - reported below
                    outcomes.append(error)

            thread = threading.Thread(target=waiter)
            thread.start()
            thread.join(0.15)  # queued three timeouts' worth
            assert thread.is_alive()
            blocked.release.set()
            thread.join(WAIT)
            assert outcomes == [CSet(["next"])]
            assert engine.health()["resilience"]["S"]["timeouts"] == 0


class TestBatchedDispatch:
    def _engine(self):
        database = Database("GDB")
        table = database.create_table_from_spec("t", {"a": "int"})
        table.insert_many({"a": value} for value in range(3))
        engine = KleisliEngine()
        driver = engine.register_driver(RelationalDriver.with_latency(
            "GDB", database, latency=0.0, max_concurrent_requests=1))
        return engine, driver

    def test_a_native_batch_holds_one_slot(self):
        engine, driver = self._engine()
        results = engine.driver_executor_batch("GDB", [{"table": "t"}, {"table": "t"}])
        assert [len(result) for result in results] == [3, 3]
        assert len(driver.remote.log) == 1
        assert engine.driver_gates["GDB"].in_flight == 0

    def test_a_failed_batch_returns_its_slot_before_the_per_request_retry(self):
        """With one slot, a retry that ran while the batch still held it
        would wait for itself."""
        engine, _ = self._engine()
        with pytest.raises(SQLExecutionError):
            engine.driver_executor_batch("GDB", [{"table": "t"}, {"table": "missing"}])
        assert engine.driver_gates["GDB"].in_flight == 0
        assert len(engine.driver_executor("GDB", {"table": "t"})) == 3


class TestNoDeclaredCap:
    def test_an_undeclared_driver_has_no_gate_and_never_touches_one(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the gate is not on an uncapped driver's path")

        monkeypatch.setattr(engine_module._DriverGate, "enter", forbidden)
        monkeypatch.setattr(engine_module._DriverGate, "leave", forbidden)

        class Plain(Driver):
            def _execute(self, request):
                return CSet([request["key"]])

        engine = KleisliEngine()
        engine.register_driver(Plain("S"))
        assert engine.driver_gates == {}
        loop = B.ext("x", _scan(B.var("x")), A.Const(CSet(range(4))))
        assert engine.execute(loop) == CSet(range(4))
        assert list(engine.stream(loop)) == [0, 1, 2, 3]
        assert engine.driver_executor_batch("S", [{"key": 1}]) == [CSet([1])]
