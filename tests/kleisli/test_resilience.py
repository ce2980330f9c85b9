"""The driver resilience layer: retries, breakers, deadlines, recovery.

The acceptance contract this file pins:

* transient faults (pre-open AND mid-stream) recover to **bit-identical**
  results — value and ``elements_fetched`` — across both lowerings,
  with zero cursor leaks;
* terminal faults are never retried; retry budgets are bounded;
* the circuit breaker trips after consecutive failures, fails fast while
  open, feeds planner availability, and re-closes through a half-open probe;
* degraded federated runs return partial results carrying typed
  ``SourceDegradedWarning`` records — never silent truncation;
* zero-fault runs are bit-for-bit unchanged with the layer installed, and
  drivers with no configured policy keep the exact legacy behavior.

Everything is deterministic: fault schedules key on request ordinals, and
the clock/sleeper hooks mean no test ever sleeps.
"""

import pytest

from repro.core.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    DriverError,
    DriverTimeoutError,
    RemoteSourceError,
    TransientDriverError,
    is_retryable_fault,
)
from repro.core.nrc import ast as A
from repro.core.nrc import builder as B
from repro.core.nrc.compile import ChunkPolicy
from repro.core.nrc.eval import EvalScope
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.resilience import (
    CircuitBreaker,
    CircuitBreakerPolicy,
    ResilienceLayer,
    RetryPolicy,
)
from repro.net.remote import RemoteSource

from fault_drivers import FaultInjectingDriver


class FakeClock:
    """A deterministic clock + sleeper pair: sleeping advances the clock."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


#: A retry policy that never sleeps (tests that don't exercise backoff).
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0)


def _scan_term(driver="Faulty", count=8):
    return B.ext("x", B.singleton(B.var("x"), "list"),
                 A.Scan(driver, {"table": "t", "count": count}, kind="list"),
                 kind="list")


def _make_engine(policy=FAST_RETRY, breaker=None, **driver_kwargs):
    driver_kwargs.setdefault("fault_type", TransientDriverError)
    engine = KleisliEngine()
    driver = engine.register_driver(FaultInjectingDriver(**driver_kwargs))
    if policy is not None or breaker is not None:
        engine.configure_resilience(driver.name, policy, breaker)
    return engine, driver


def _drain(engine, term, lowering, **kwargs):
    """Run one term under one lowering; return (values, elements_fetched)."""
    if lowering == "eager":
        value = engine.execute(term, optimize=False, **kwargs)
        values = list(value)
    elif lowering == "chunks of one":
        values = list(engine.stream(term, optimize=False,
                                    chunk_policy=ChunkPolicy(max_chunk=1),
                                    **kwargs))
    else:
        values = list(engine.stream(term, optimize=False, **kwargs))
    return values, engine.last_eval_statistics.elements_fetched


LOWERINGS = ["eager", "chunks of one", "chunked"]


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


class TestFaultTaxonomy:
    def test_retryable_classes(self):
        assert is_retryable_fault(RemoteSourceError("cap"))
        assert is_retryable_fault(TransientDriverError("blip"))
        assert is_retryable_fault(DriverTimeoutError("d", 0.2, 0.1))
        assert is_retryable_fault(ConnectionError("reset"))
        assert is_retryable_fault(TimeoutError("slow"))

    def test_terminal_classes(self):
        assert not is_retryable_fault(DriverError("malformed"))
        assert not is_retryable_fault(DeadlineExceededError("d"))
        assert not is_retryable_fault(CircuitOpenError("d"))
        assert not is_retryable_fault(ValueError("bug"))


# ---------------------------------------------------------------------------
# Retries (pre-open faults)
# ---------------------------------------------------------------------------


class TestRetries:
    @pytest.mark.parametrize("lowering", LOWERINGS)
    def test_transient_pre_open_fault_recovers_bit_identically(self, lowering):
        baseline_engine, _ = _make_engine(policy=None)
        expected = _drain(baseline_engine, _scan_term(), lowering)

        engine, driver = _make_engine(fail_on={1})
        got = _drain(engine, _scan_term(), lowering)
        assert got == expected
        assert driver.faults_raised == 1
        assert driver.requests_served == 2  # the fault + the successful retry
        assert engine.last_eval_statistics.retries == 1

    def test_terminal_fault_is_never_retried(self):
        engine, driver = _make_engine(fail_on={1}, fault_type=DriverError)
        with pytest.raises(DriverError):
            engine.execute(_scan_term(), optimize=False)
        assert driver.requests_served == 1

    def test_retry_budget_is_bounded(self):
        engine, driver = _make_engine(fail_on={1, 2, 3, 4, 5})
        with pytest.raises(TransientDriverError):
            engine.execute(_scan_term(), optimize=False)
        assert driver.requests_served == FAST_RETRY.max_attempts

    def test_unconfigured_driver_keeps_legacy_failure_behavior(self):
        engine, driver = _make_engine(policy=None, fail_on={1})
        with pytest.raises(TransientDriverError):
            engine.execute(_scan_term(), optimize=False)
        assert driver.requests_served == 1  # no resilience => no retry

    def test_backoff_schedule_is_deterministic_and_capped(self):
        policy = RetryPolicy(max_attempts=5, backoff_base=0.1,
                             backoff_multiplier=2.0, backoff_cap=0.3)
        assert [policy.backoff_for(n) for n in (1, 2, 3, 4)] \
            == [0.1, 0.2, 0.3, 0.3]
        jittered = RetryPolicy(backoff_base=0.1,
                               jitter=lambda attempt, delay: delay / 2)
        assert jittered.backoff_for(1) == pytest.approx(0.05)

    def test_backoff_sleeps_through_the_injected_sleeper(self):
        clock = FakeClock()
        engine, driver = _make_engine(
            policy=RetryPolicy(max_attempts=3, backoff_base=0.25,
                               backoff_multiplier=2.0, backoff_cap=10.0),
            fail_on={1, 2})
        engine.resilience.clock = clock
        engine.resilience.sleeper = clock.sleep
        values, _ = _drain(engine, _scan_term(), "eager")
        assert values == list(range(8))
        # Two retries: 0.25 then 0.5 on the fake clock, zero real sleeping.
        assert clock.now == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# Mid-stream cursor recovery
# ---------------------------------------------------------------------------


class TestMidstreamRecovery:
    @pytest.mark.parametrize("lowering", LOWERINGS)
    def test_midstream_fault_recovers_bit_identically(self, lowering):
        baseline_engine, _ = _make_engine(policy=None)
        expected = _drain(baseline_engine, _scan_term(), lowering)

        engine, driver = _make_engine(midstream_fail_on={1},
                                      midstream_after=3)
        got = _drain(engine, _scan_term(), lowering)
        assert got == expected, (
            "recovered run must match the fault-free run in values AND "
            "elements_fetched accounting")
        assert driver.open_cursors == 0, "recovery leaked a cursor"
        stats = engine.last_eval_statistics
        assert stats.recovered_faults == 1
        assert stats.retries == 1

    @pytest.mark.parametrize("lowering", LOWERINGS)
    def test_multiple_midstream_faults_recover(self, lowering):
        baseline_engine, _ = _make_engine(policy=None, total=12)
        expected = _drain(baseline_engine, _scan_term(count=12), lowering)

        # The first cursor dies at 2 elements, its replacement at 5; the
        # third issue drains.  Progress between faults resets the budget.
        engine, driver = _make_engine(
            total=12, midstream_fail_on={1, 2},
            midstream_after={1: 2, 2: 5})
        got = _drain(engine, _scan_term(count=12), lowering)
        assert got == expected
        assert driver.open_cursors == 0
        assert engine.last_eval_statistics.recovered_faults == 2

    def test_consecutive_midstream_faults_exhaust_the_budget(self):
        # Every cursor dies at element 0: no progress is ever made, so the
        # consecutive-failure budget (max_attempts - 1 recoveries) runs out.
        engine, driver = _make_engine(
            midstream_fail_on={1, 2, 3, 4, 5}, midstream_after=0)
        with pytest.raises(TransientDriverError):
            list(engine.stream(_scan_term(), optimize=False))
        assert driver.open_cursors == 0
        assert driver.requests_served == FAST_RETRY.max_attempts

    def test_no_scope_leak_across_recovered_streams(self):
        baseline = EvalScope.live_count()
        engine, driver = _make_engine(midstream_fail_on={1, 3},
                                      midstream_after=2)
        for _ in range(2):
            assert list(engine.stream(_scan_term(), optimize=False)) \
                == list(range(8))
        assert EvalScope.live_count() == baseline
        assert driver.open_cursors == 0

    def test_early_close_of_recovering_stream_releases_cursor(self):
        engine, driver = _make_engine(midstream_fail_on={1},
                                      midstream_after=2)
        stream = engine.stream(_scan_term(), optimize=False)
        assert [next(stream) for _ in range(4)] == [0, 1, 2, 3]
        assert driver.open_cursors == 1
        stream.close()
        assert driver.open_cursors == 0

    def test_shrunken_source_on_reissue_is_a_loud_error(self):
        # The replacement cursor is SHORTER than the already-delivered
        # prefix: recovery must refuse to silently truncate.
        class ShrinkingDriver(FaultInjectingDriver):
            def _execute(self, request):
                if self.requests_served >= 1:  # re-issues see a tiny source
                    request = dict(request, count=1)
                return super()._execute(request)

        engine = KleisliEngine()
        engine.register_driver(ShrinkingDriver(
            midstream_fail_on={1}, midstream_after=3,
            fault_type=TransientDriverError))
        engine.configure_resilience("Faulty", FAST_RETRY)
        with pytest.raises(DriverError, match="shorter stream"):
            list(engine.stream(_scan_term(), optimize=False))


# ---------------------------------------------------------------------------
# Per-request timeouts and the per-query deadline
# ---------------------------------------------------------------------------


class TestTimeoutsAndDeadlines:
    def _timed_engine(self, latency, policy, **driver_kwargs):
        clock = FakeClock()
        engine = KleisliEngine()
        driver = engine.register_driver(FaultInjectingDriver(
            latency=latency, sleeper=clock.sleep,
            fault_type=TransientDriverError, **driver_kwargs))
        engine.resilience.clock = clock
        engine.resilience.sleeper = clock.sleep
        engine.configure_resilience(driver.name, policy)
        return engine, driver, clock

    def test_slow_request_times_out_and_retries(self):
        # Request #1 stalls 0.2s (fake) against a 0.1s budget; #2 is fast.
        engine, driver, _clock = self._timed_engine(
            latency={1: 0.2},
            policy=RetryPolicy(max_attempts=2, backoff_base=0.0,
                               request_timeout=0.1))
        values, _ = _drain(engine, _scan_term(), "eager")
        assert values == list(range(8))
        assert driver.requests_served == 2
        health = engine.health()["resilience"]["Faulty"]
        assert health["timeouts"] == 1
        assert health["retries"] == 1

    def test_persistent_slowness_raises_timeout(self):
        engine, driver, _clock = self._timed_engine(
            latency=0.2,
            policy=RetryPolicy(max_attempts=2, backoff_base=0.0,
                               request_timeout=0.1))
        with pytest.raises(DriverTimeoutError):
            engine.execute(_scan_term(), optimize=False)
        assert driver.requests_served == 2

    def test_deadline_stops_retrying_mid_budget(self):
        # The first attempt burns 1.0s (fake) against a 0.5s query budget
        # and faults: the pre-retry deadline check fires — terminal, no
        # second attempt even though the retry budget has room.
        engine, driver, _clock = self._timed_engine(
            latency=1.0, fail_on={1},
            policy=RetryPolicy(max_attempts=5, backoff_base=0.0))
        with pytest.raises(DeadlineExceededError):
            engine.execute(_scan_term(), optimize=False, deadline=0.5)
        assert driver.requests_served == 1

    def test_backoff_never_sleeps_past_the_deadline(self):
        # The retry itself would fit, but its 10s backoff would not: fail
        # at the sleep decision, not 10 fake-seconds later.
        engine, driver, clock = self._timed_engine(
            latency=0.0, fail_on={1},
            policy=RetryPolicy(max_attempts=3, backoff_base=10.0,
                               backoff_cap=100.0))
        with pytest.raises(DeadlineExceededError):
            engine.execute(_scan_term(), optimize=False, deadline=5.0)
        assert clock.now < 5.0
        assert driver.requests_served == 1

    def test_deadline_is_not_degradable(self):
        engine, _driver, _clock = self._timed_engine(
            latency=1.0, fail_on={1},
            policy=RetryPolicy(max_attempts=5, backoff_base=0.0))
        with pytest.raises(DeadlineExceededError):
            engine.execute(_scan_term(), optimize=False, deadline=0.5,
                           on_source_failure="degrade")


# ---------------------------------------------------------------------------
# The circuit breaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_fails_fast_and_recloses_via_half_open_probe(self):
        clock = FakeClock()
        engine = KleisliEngine()
        driver = engine.register_driver(FaultInjectingDriver(
            fail_on={1, 2}, fault_type=TransientDriverError))
        engine.resilience.clock = clock
        engine.resilience.sleeper = clock.sleep
        engine.configure_resilience(
            "Faulty", RetryPolicy(max_attempts=1),
            CircuitBreakerPolicy(failure_threshold=2, recovery_time=30.0))
        term = _scan_term()

        for _ in range(2):  # two failures trip the breaker
            with pytest.raises(TransientDriverError):
                engine.execute(term, optimize=False)
        assert engine.resilience.breaker_for("Faulty").state \
            == CircuitBreaker.OPEN
        assert not engine.statistics_registry.is_available("Faulty")

        # Open: fail fast, the driver is never touched.
        with pytest.raises(CircuitOpenError):
            engine.execute(term, optimize=False)
        assert driver.requests_served == 2

        # Past the recovery time: the next request is the half-open probe;
        # it succeeds, so the breaker re-closes and availability returns.
        clock.sleep(31.0)
        values, _ = _drain(engine, term, "eager")
        assert values == list(range(8))
        breaker = engine.resilience.breaker_for("Faulty")
        assert breaker.state == CircuitBreaker.CLOSED
        assert engine.statistics_registry.is_available("Faulty")
        snapshot = breaker.snapshot()
        assert snapshot["trips"] == 1
        assert snapshot["probes"] == 1

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "d", CircuitBreakerPolicy(failure_threshold=1, recovery_time=10.0),
            clock=clock)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock.sleep(11.0)
        breaker.before_call()  # admitted as the probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        # The re-open restarted the recovery clock.
        with pytest.raises(CircuitOpenError):
            breaker.before_call()

    def test_half_open_admits_one_probe_at_a_time(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "d", CircuitBreakerPolicy(failure_threshold=1, recovery_time=1.0),
            clock=clock)
        breaker.record_failure()
        clock.sleep(2.0)
        breaker.before_call()
        with pytest.raises(CircuitOpenError):
            breaker.before_call()  # second caller rejected while probing
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_breaker_books_balance(self):
        clock = FakeClock()
        engine = KleisliEngine()
        engine.register_driver(FaultInjectingDriver(
            fail_on={2, 5}, fault_type=TransientDriverError))
        engine.resilience.clock = clock
        engine.configure_resilience(
            "Faulty", RetryPolicy(max_attempts=2, backoff_base=0.0),
            CircuitBreakerPolicy(failure_threshold=10))
        for _ in range(4):
            assert list(engine.execute(_scan_term(), optimize=False)) \
                == list(range(8))
        snapshot = engine.resilience.breaker_for("Faulty").snapshot()
        assert snapshot["failures"] == 2
        assert snapshot["successes"] == 4
        assert snapshot["state"] == CircuitBreaker.CLOSED

    def test_tripped_breaker_vetoes_planner_batching(self):
        class BatchDriver(FaultInjectingDriver):
            batch_single_round_trip = True

            def execute_batch(self, requests):
                return [self._execute(dict(request)) for request in requests]

        engine = KleisliEngine()
        engine.register_driver(BatchDriver(name="batchy", total=4096),
                               latency=0.02)
        engine.statistics_registry.register_cardinality("batchy", "t", 4096)
        term = _scan_term("batchy", count=4096)
        plan = engine.plan_for(term)
        assert plan.remote_max_chunk > ChunkPolicy.REMOTE_MAX_CHUNK

        # Trip: the engine's breaker hook marks the source unavailable and
        # the planner stops routing batching-aggressive scans at it.
        engine._note_breaker_event("batchy", CircuitBreaker.OPEN)
        tripped = engine.plan_for(term)
        assert tripped.remote_max_chunk == ChunkPolicy.REMOTE_MAX_CHUNK

        engine._note_breaker_event("batchy", CircuitBreaker.CLOSED)
        assert engine.plan_for(term).remote_max_chunk \
            > ChunkPolicy.REMOTE_MAX_CHUNK


# ---------------------------------------------------------------------------
# Graceful degradation (typed partial results)
# ---------------------------------------------------------------------------


class TestDegradation:
    def _federated_engine(self, **faulty_kwargs):
        faulty_kwargs.setdefault("fault_type", TransientDriverError)
        engine = KleisliEngine()
        engine.register_driver(FaultInjectingDriver(
            name="Healthy", fault_type=TransientDriverError))
        engine.register_driver(FaultInjectingDriver(**faulty_kwargs))
        engine.configure_resilience(
            "Faulty", RetryPolicy(max_attempts=2, backoff_base=0.0))
        term = B.union(_scan_term("Healthy", 4), _scan_term("Faulty", 4),
                       kind="list")
        return engine, term

    @pytest.mark.parametrize("lowering", LOWERINGS)
    def test_degraded_union_returns_partial_with_typed_warning(self, lowering):
        engine, term = self._federated_engine(fail_on={1, 2, 3, 4, 5, 6})
        values, _ = _drain(engine, term, lowering,
                           on_source_failure="degrade")
        assert values == list(range(4)), "healthy source must survive"
        warnings = engine.last_eval_statistics.warnings
        assert len(warnings) == 1
        warning = warnings[0]
        assert warning.driver == "Faulty"
        assert warning.error_type == "TransientDriverError"
        assert warning.as_dict()["requests_dropped"] == 1

    def test_fail_policy_still_propagates(self):
        engine, term = self._federated_engine(fail_on={1, 2, 3, 4, 5, 6})
        with pytest.raises(TransientDriverError):
            engine.execute(term, optimize=False)  # default: fail

    def test_terminal_fault_never_degrades(self):
        engine, term = self._federated_engine(fail_on={1},
                                              fault_type=DriverError)
        with pytest.raises(DriverError):
            engine.execute(term, optimize=False,
                           on_source_failure="degrade")

    def test_midstream_exhaustion_degrades_to_announced_prefix(self):
        engine = KleisliEngine()
        driver = engine.register_driver(FaultInjectingDriver(
            midstream_fail_on={1, 2}, midstream_after={1: 3, 2: 0},
            fault_type=TransientDriverError))
        engine.configure_resilience(
            "Faulty", RetryPolicy(max_attempts=2, backoff_base=0.0))
        values = list(engine.stream(_scan_term(), optimize=False,
                                    on_source_failure="degrade"))
        # Cursor #1 died at 3, its replacement at 0: the budget is spent,
        # so the degraded stream ends at the delivered prefix — announced.
        assert values == [0, 1, 2]
        warnings = engine.last_eval_statistics.warnings
        assert [w.driver for w in warnings] == ["Faulty"]
        assert driver.open_cursors == 0

    def test_open_breaker_degrades(self):
        engine, term = self._federated_engine()
        engine.configure_resilience(
            "Faulty", RetryPolicy(max_attempts=1),
            CircuitBreakerPolicy(failure_threshold=1, recovery_time=1e9))
        engine.resilience.breaker_for("Faulty").record_failure()  # trip
        values, _ = _drain(engine, term, "eager",
                           on_source_failure="degrade")
        assert values == list(range(4))
        assert engine.last_eval_statistics.warnings[0].error_type \
            == "CircuitOpenError"

    def test_session_level_degrade_default(self):
        from repro.kleisli.session import Session

        engine, _term = self._federated_engine(fail_on={1, 2, 3, 4, 5, 6})
        session = Session(engine=engine, on_source_failure="degrade")
        value = session.run(r"[| x | \x <- Faulty(4) |]")
        assert list(value) == []  # degraded, not raised
        assert [w.driver for w in session.last_warnings] == ["Faulty"]

        healthy = session.run(r"[| x | \x <- Healthy(4) |]")
        assert list(healthy) == list(range(4))
        assert session.last_warnings == []

    def test_engine_rejects_unknown_policy(self):
        engine, _driver = _make_engine()
        with pytest.raises(ValueError, match="on_source_failure"):
            engine.execute(_scan_term(), optimize=False,
                           on_source_failure="shrug")


# ---------------------------------------------------------------------------
# Zero-fault parity and health reporting
# ---------------------------------------------------------------------------


class TestZeroFaultParity:
    @pytest.mark.parametrize("lowering", LOWERINGS)
    def test_installed_layer_changes_nothing_without_faults(self, lowering):
        bare_engine, bare_driver = _make_engine(policy=None)
        expected = _drain(bare_engine, _scan_term(), lowering)

        engine, driver = _make_engine(
            policy=RetryPolicy(max_attempts=3, request_timeout=30.0),
            breaker=CircuitBreakerPolicy())
        got = _drain(engine, _scan_term(), lowering)
        assert got == expected
        assert driver.requests_served == bare_driver.requests_served
        stats = engine.last_eval_statistics
        assert stats.retries == 0
        assert stats.recovered_faults == 0
        assert stats.warnings == []

    def test_statistics_as_dict_is_wire_safe(self):
        import json

        engine, _driver = _make_engine(fail_on={1})
        engine.execute(_scan_term(), optimize=False,
                       on_source_failure="degrade")
        payload = engine.last_eval_statistics.as_dict()
        json.dumps(payload)  # must be JSON-serializable end to end
        assert payload["retries"] == 1

    def test_health_reports_resilience_books(self):
        engine, _driver = _make_engine(fail_on={1},
                                       breaker=CircuitBreakerPolicy())
        engine.execute(_scan_term(), optimize=False)
        books = engine.health()["resilience"]["Faulty"]
        assert books["requests"] == 1
        assert books["retries"] == 1
        assert books["failures"] == 1
        assert books["breaker"]["state"] == CircuitBreaker.CLOSED

    def test_unconfigured_engine_reports_empty_resilience(self):
        engine, _driver = _make_engine(policy=None)
        engine.execute(_scan_term(), optimize=False)
        assert engine.health()["resilience"] == {}

    def test_removing_the_policy_restores_passthrough(self):
        engine, driver = _make_engine(fail_on={1, 3})
        values, _ = _drain(engine, _scan_term(), "eager")
        assert values == list(range(8))
        engine.configure_resilience("Faulty")  # remove
        with pytest.raises(TransientDriverError):
            engine.execute(_scan_term(), optimize=False)


# ---------------------------------------------------------------------------
# The RemoteSource chaos fixture (satellite)
# ---------------------------------------------------------------------------


class TestRemoteSourceFaultModes:
    def test_cap_rejection_is_retryable(self):
        source = RemoteSource("s", lambda payload: payload, latency=0.0,
                              max_concurrent_requests=0)
        with pytest.raises(RemoteSourceError) as excinfo:
            source.call("x")
        assert is_retryable_fault(excinfo.value)

    def test_failure_rate_is_deterministic_by_ordinal(self):
        source = RemoteSource("s", lambda payload: payload, latency=0.0,
                              failure_rate=0.25)  # every 4th request
        outcomes = []
        for i in range(8):
            try:
                outcomes.append(source.call(i))
            except RemoteSourceError:
                outcomes.append("fault")
        assert outcomes == [0, 1, 2, "fault", 4, 5, 6, "fault"]
        assert source.faults_injected == 2

    def test_fail_after_n_takes_the_server_down(self):
        source = RemoteSource("s", lambda payload: payload, latency=0.0,
                              fail_after=2)
        assert source.call("a") == "a"
        assert source.call("b") == "b"
        for _ in range(3):
            with pytest.raises(RemoteSourceError):
                source.call("c")

    def test_injected_clock_means_no_real_sleeping(self):
        clock = FakeClock()
        source = RemoteSource("s", lambda payload: payload, latency=5.0,
                              clock=clock, sleeper=clock.sleep)
        assert source.call("x") == "x"
        assert clock.now == pytest.approx(5.0)
        assert source.log.wall_clock() == pytest.approx(5.0)

    def test_batch_fault_fails_whole_batch_once(self):
        source = RemoteSource("s", lambda payload: payload, latency=0.0,
                              fail_after=0)
        with pytest.raises(RemoteSourceError):
            source.call_batch(["a", "b"])
        assert source.faults_injected == 1


# ---------------------------------------------------------------------------
# Batch decomposition (satellite)
# ---------------------------------------------------------------------------


class TestBatchDecomposition:
    class FlakyBatchDriver(FaultInjectingDriver):
        """Native batches fail while a RemoteSource-ish cap is hot; the
        per-request path works."""

        batch_single_round_trip = True

        def __init__(self, batch_failures=1, **kwargs):
            super().__init__(**kwargs)
            self.batch_calls = 0
            self.batch_failures = batch_failures

        def execute_batch(self, requests):
            self.batch_calls += 1
            if self.batch_calls <= self.batch_failures:
                raise RemoteSourceError(
                    f"{self.name}: batch #{self.batch_calls} rejected")
            return [self._execute(dict(request)) for request in requests]

    def test_failed_native_batch_decomposes_per_request(self):
        engine = KleisliEngine()
        driver = engine.register_driver(self.FlakyBatchDriver(
            batch_failures=10**9, fault_type=TransientDriverError))
        results = engine.driver_executor_batch(
            "Faulty", [{"table": "t", "count": 2}, {"table": "t", "count": 3}])
        assert [list(r) for r in results] == [[0, 1], [0, 1, 2]]
        assert driver.requests_served == 2  # per-request re-dispatch

    def test_one_bad_request_no_longer_poisons_siblings(self):
        engine = KleisliEngine()
        driver = engine.register_driver(self.FlakyBatchDriver(
            batch_failures=10**9, fail_on={2},
            fault_type=TransientDriverError))
        engine.configure_resilience("Faulty", FAST_RETRY)
        results = engine.driver_executor_batch(
            "Faulty", [{"table": "t", "count": 1},
                       {"table": "t", "count": 2},
                       {"table": "t", "count": 3}])
        # Request #2's transient fault retried (ordinal 3 succeeds); the
        # siblings were never re-failed.
        assert [list(r) for r in results] == [[0], [0, 1], [0, 1, 2]]
        assert driver.faults_raised == 1

    def test_successful_native_batch_path_is_unchanged(self):
        engine = KleisliEngine()
        driver = engine.register_driver(self.FlakyBatchDriver(
            batch_failures=0, fault_type=TransientDriverError))
        results = engine.driver_executor_batch(
            "Faulty", [{"table": "t", "count": 2}] * 3)
        assert driver.batch_calls == 1
        assert len(results) == 3
