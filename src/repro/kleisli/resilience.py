"""Driver resilience: retries, circuit breakers, deadlines, stream recovery.

The paper's federated queries reach flaky wide-area sources (GDB in
Baltimore, GenBank in Bethesda, over the 1995 Internet) and it warns that a
server "may only be able to handle a limited number of requests at a time".
Before this module a single transient fault anywhere — a cap rejection, a
dropped cursor three elements into a scan — aborted the whole query.  This
layer sits at the ONE choke point every backend shares
(``KleisliEngine.driver_executor`` / ``driver_executor_batch``), so both
lowerings (eager and chunked) inherit it without any change to compiled
code:

* :class:`RetryPolicy` — bounded attempts with exponential backoff
  (deterministic injectable jitter, clock and sleeper, so tests never
  sleep), a per-request timeout, honoring the per-query deadline carried on
  ``EvalContext.deadline``;
* :class:`CircuitBreaker` — the classic three-state machine (closed / open /
  half-open) per driver; trips stop the hammering, a half-open probe decides
  re-closing, and every state change is published (the engine feeds it to
  the statistics registry, which the planner consults before routing batched
  scans at a source);
* :class:`RecoveringStream` — mid-stream cursor recovery: when a lazy scan
  cursor dies mid-chunk, the scan is re-issued and resumed through a
  seen-prefix filter, so a drained recovered run is **bit-identical** to a
  fault-free run in both values and ``elements_fetched`` accounting (the
  skipped prefix is consumed *below* the statistics-counting wrapper);
* **graceful degradation** — under ``on_source_failure="degrade"`` a source
  that stays down after retries (or whose breaker is open) contributes an
  empty result plus a typed
  :class:`~repro.core.errors.SourceDegradedWarning` in
  ``EvalStatistics.warnings`` instead of failing the query: federated
  unions return partial results that are always announced, never silently
  truncated.

Fault classification is :func:`repro.core.errors.is_retryable_fault` — see
the taxonomy table in :mod:`repro.core.errors`.  A driver with no
configured policy and no breaker passes straight through: zero-fault runs
are bit-for-bit unchanged with the layer installed.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from ..core._fields import Fields
from ..core.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    DriverError,
    DriverTimeoutError,
    SourceDegradedWarning,
    is_retryable_fault,
)
from ..core.nrc.eval import EvalStatistics, _CountingStream
from ..obs.metrics import Books

__all__ = ["RetryPolicy", "CircuitBreakerPolicy", "CircuitBreaker",
           "ResilienceLayer", "RecoveringStream"]


class RetryPolicy(Fields, frozen=True):
    """Per-driver retry knobs (immutable, like :class:`PhysicalPlan`).

    ``jitter`` (when given) maps ``(attempt, delay) -> delay`` and MUST be
    deterministic if tests rely on reproducible schedules — the layer never
    calls a random source itself.  ``request_timeout`` bounds one request's
    round-trip as measured by the layer's clock; overruns are classified
    :class:`~repro.core.errors.DriverTimeoutError` (retryable) and the slow
    answer is discarded.  ``recover_midstream`` enables
    :class:`RecoveringStream` wrapping of lazy results.
    """

    max_attempts: int = 3
    backoff_base: float = 0.02
    backoff_multiplier: float = 2.0
    backoff_cap: float = 0.5
    request_timeout: Optional[float] = None
    jitter: Optional[Callable[[int, float], float]] = None
    recover_midstream: bool = True

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff knobs must be non-negative")

    def backoff_for(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based count of failures)."""
        delay = min(self.backoff_cap,
                    self.backoff_base * (self.backoff_multiplier ** (attempt - 1)))
        if self.jitter is not None:
            delay = self.jitter(attempt, delay)
        return max(0.0, delay)


class CircuitBreakerPolicy(Fields, frozen=True):
    """Knobs for one driver's :class:`CircuitBreaker`."""

    #: Consecutive failures that trip a closed breaker open.
    failure_threshold: int = 5
    #: Seconds an open breaker waits before letting a half-open probe through.
    recovery_time: float = 30.0

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if self.recovery_time < 0:
            raise ValueError("recovery_time must be non-negative")


class CircuitBreaker:
    """Three-state (closed / open / half-open) breaker for one driver.

    Thread-safe: scheduler worker threads report successes/failures
    concurrently.  State changes are published via ``on_event(driver,
    state)`` *outside* the lock (the engine forwards them to the statistics
    registry so the planner sees availability).  In half-open state exactly
    one probe request is admitted at a time; its outcome decides re-closing
    (success) or re-opening (failure).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, driver: str,
                 policy: Optional[CircuitBreakerPolicy] = None,
                 clock: Callable[[], float] = time.monotonic,
                 on_event: Optional[Callable[[str, str], None]] = None):
        self.driver = driver
        self.policy = policy or CircuitBreakerPolicy()
        self._clock = clock
        self._on_event = on_event
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self.trips = 0
        self.probes = 0
        self.successes = 0
        self.failures = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _emit(self, state: str) -> None:
        if self._on_event is not None:
            self._on_event(self.driver, state)

    def before_call(self) -> None:
        """Admission check; raises :class:`CircuitOpenError` when tripped.

        An open breaker past its recovery time transitions to half-open and
        admits the caller as the probe; further callers are rejected until
        the probe reports back.
        """
        event = None
        with self._lock:
            if self._state == self.CLOSED:
                return
            if self._state == self.OPEN:
                waited = self._clock() - self._opened_at
                if waited < self.policy.recovery_time:
                    raise CircuitOpenError(
                        self.driver,
                        retry_after=self.policy.recovery_time - waited)
                self._state = self.HALF_OPEN
                self._probe_in_flight = True
                self.probes += 1
                event = self.HALF_OPEN
            else:  # half-open: one probe at a time
                if self._probe_in_flight:
                    raise CircuitOpenError(self.driver, retry_after=0.0)
                self._probe_in_flight = True
                self.probes += 1
        if event is not None:
            self._emit(event)

    def record_success(self) -> None:
        event = None
        with self._lock:
            self.successes += 1
            self._consecutive_failures = 0
            if self._state != self.CLOSED:
                self._state = self.CLOSED
                self._probe_in_flight = False
                event = self.CLOSED
        if event is not None:
            self._emit(event)

    def record_failure(self) -> None:
        event = None
        with self._lock:
            self.failures += 1
            if self._state == self.HALF_OPEN:
                # The probe failed: back to fully open, clock restarted.
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._probe_in_flight = False
                self.trips += 1
                event = self.OPEN
            else:
                self._consecutive_failures += 1
                if (self._state == self.CLOSED and self._consecutive_failures
                        >= self.policy.failure_threshold):
                    self._state = self.OPEN
                    self._opened_at = self._clock()
                    self.trips += 1
                    event = self.OPEN
        if event is not None:
            self._emit(event)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {"state": self._state, "trips": self.trips,
                    "probes": self.probes, "successes": self.successes,
                    "failures": self.failures,
                    "consecutive_failures": self._consecutive_failures}


#: The per-driver resilience books (for ``engine.health()``).
DRIVER_BOOKS = ("requests", "retries", "timeouts", "failures",
                "midstream_faults", "recoveries", "degraded")


class ResilienceLayer:
    """Per-driver retry policies and breakers behind the engine's executors.

    ``clock`` and ``sleeper`` are injectable so the whole layer — backoff,
    timeouts, deadlines, breaker recovery — runs deterministically under a
    fake clock in tests.  ``on_breaker_event(driver, state)`` (settable
    post-construction) is fanned every breaker state change; the engine
    points it at the statistics registry's availability map.
    ``gates`` maps a driver to the in-flight gate of a server that declared
    a concurrency cap (the engine hands in its own ``driver_gates``): every
    raw attempt holds one of its slots, the backoff between attempts none.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic,
                 sleeper: Callable[[float], None] = time.sleep):
        self.clock = clock
        self.sleeper = sleeper
        self.on_breaker_event: Optional[Callable[[str, str], None]] = None
        self.gates: Dict[str, object] = {}
        self._lock = threading.Lock()
        self._policies: Dict[str, RetryPolicy] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._counters: Dict[str, Books] = {}

    # -- configuration -------------------------------------------------------

    def set_policy(self, driver: str, retry: Optional[RetryPolicy] = None,
                   breaker: Optional[CircuitBreakerPolicy] = None) -> None:
        """Install (or replace) one driver's resilience configuration.

        ``retry=None`` with ``breaker=None`` removes the configuration —
        the driver returns to raw pass-through dispatch.
        """
        with self._lock:
            if retry is None and breaker is None:
                self._policies.pop(driver, None)
                self._breakers.pop(driver, None)
                return
            if retry is not None:
                self._policies[driver] = retry
            else:
                self._policies.pop(driver, None)
            if breaker is not None:
                self._breakers[driver] = CircuitBreaker(
                    driver, breaker, clock=self.clock,
                    on_event=self._breaker_event)
            else:
                self._breakers.pop(driver, None)

    def breaker_for(self, driver: str) -> Optional[CircuitBreaker]:
        with self._lock:
            return self._breakers.get(driver)

    def configured(self, driver: str) -> bool:
        with self._lock:
            return driver in self._policies or driver in self._breakers

    def _breaker_event(self, driver: str, state: str) -> None:
        callback = self.on_breaker_event
        if callback is not None:
            callback(driver, state)

    def counters(self, driver: str) -> Books:
        with self._lock:
            counters = self._counters.get(driver)
            if counters is None:
                counters = self._counters[driver] = Books(DRIVER_BOOKS)
            return counters

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-driver counters + breaker state, for ``engine.health()``."""
        with self._lock:
            drivers = set(self._counters) | set(self._breakers) \
                | set(self._policies)
            breakers = dict(self._breakers)
            counters = dict(self._counters)
        result: Dict[str, Dict[str, object]] = {}
        for driver in sorted(drivers):
            entry: Dict[str, object] = {}
            if driver in counters:
                entry.update(counters[driver].snapshot())
            breaker = breakers.get(driver)
            entry["breaker"] = breaker.snapshot() if breaker is not None \
                else None
            result[driver] = entry
        return result

    def totals(self) -> Dict[str, int]:
        """Every driver's books summed (what the ``metrics`` scrape reads)."""
        with self._lock:
            counters = list(self._counters.values())
        totals = Books()
        for books in counters:
            totals.merge(books.snapshot())
        return totals.snapshot()

    # -- the dispatch path ---------------------------------------------------

    def execute(self, driver: str, request, raw: Callable, context=None):
        """Dispatch one request through retry/breaker/deadline machinery.

        ``raw(driver, request)`` is the engine's timed dispatch (driver
        lookup + execute + latency-EMA sample).  Unconfigured drivers pass
        straight through — holding their gate's slot, if any, and nothing
        else.  Lazy results of configured drivers are wrapped for mid-stream
        recovery; terminal failures may degrade to an announced-empty result
        when the context asks for it.
        """
        with self._lock:
            policy = self._policies.get(driver)
            breaker = self._breakers.get(driver)
        if policy is None and breaker is None:
            gate = self.gates.get(driver)
            if gate is None:
                return raw(driver, request)
            gate.enter(driver, context, self.clock)
            try:
                return raw(driver, request)
            finally:
                gate.leave()
        counters = self.counters(driver)
        counters.count("requests")
        try:
            result = self._attempt(driver, request, raw, policy, breaker,
                                   counters, context)
        except Exception as error:  # noqa: BLE001 - classified below
            if not self._degrade(driver, error, context, counters):
                raise
            from ..core.values import CList

            return CList([])
        if (policy is not None and policy.recover_midstream
                and not _is_eager(result)):
            return RecoveringStream(self, driver, request, raw, policy,
                                    breaker, counters, context, result)
        return result

    def _attempt(self, driver: str, request, raw: Callable,
                 policy: Optional[RetryPolicy],
                 breaker: Optional[CircuitBreaker],
                 counters: Books, context) -> object:
        """The bounded attempt loop shared by first dispatch and re-issues.

        Each attempt holds one slot of the driver's gate (when its server
        declared a cap) from before the breaker's admission to the reply.
        Waiting for the slot is not the request's time: no timeout runs and
        no breaker outcome is booked while it waits, and the wait ends on
        the run's cancellation or deadline.  The backoff before the next
        attempt is served with the slot returned.
        """
        max_attempts = policy.max_attempts if policy is not None else 1
        attempt = 0
        while True:
            attempt += 1
            self._check_deadline(driver, context)
            gate = self.gates.get(driver)
            if gate is not None:
                gate.enter(driver, context, self.clock)
            try:
                result, retry = self._attempt_once(
                    driver, request, raw, policy, breaker, counters,
                    last=attempt >= max_attempts)
            finally:
                if gate is not None:
                    gate.leave()
            if not retry:
                return result
            self._book_retry(driver, attempt, policy, counters, context)

    def _attempt_once(self, driver: str, request, raw: Callable,
                      policy: Optional[RetryPolicy],
                      breaker: Optional[CircuitBreaker],
                      counters: Books, last: bool):
        """One raw attempt: ``(result, False)``, or ``(None, True)`` for a
        retryable failure that is not the ``last`` attempt; raises
        otherwise."""
        if breaker is not None:
            breaker.before_call()
        started = self.clock()
        try:
            result = raw(driver, request)
        except Exception as error:  # noqa: BLE001 - classified below
            if breaker is not None:
                breaker.record_failure()
            counters.count("failures")
            if last or not is_retryable_fault(error):
                raise
            return None, True
        if policy is not None and policy.request_timeout is not None:
            elapsed = self.clock() - started
            if elapsed > policy.request_timeout:
                _close_quietly(result)
                if breaker is not None:
                    breaker.record_failure()
                counters.count("timeouts")
                if last:
                    raise DriverTimeoutError(driver, elapsed,
                                             policy.request_timeout)
                return None, True
        if breaker is not None:
            breaker.record_success()
        return result, False

    def _book_retry(self, driver: str, attempt: int,
                    policy: Optional[RetryPolicy],
                    counters: Books, context) -> None:
        """Account one retry and serve its backoff (deadline-capped)."""
        counters.count("retries")
        if context is not None:
            context.statistics.retries += 1
            trace = getattr(context, "trace", None)
            if trace is not None:
                trace.event("retry", driver=driver, attempt=attempt)
        if policy is None:
            return
        delay = policy.backoff_for(attempt)
        if delay <= 0:
            return
        deadline = getattr(context, "deadline", None) if context is not None \
            else None
        if deadline is not None and self.clock() + delay > deadline:
            # Sleeping would blow the budget: fail now, not later.
            raise DeadlineExceededError(driver)
        self.sleeper(delay)

    def _check_deadline(self, driver: str, context) -> None:
        deadline = getattr(context, "deadline", None) if context is not None \
            else None
        if deadline is not None:
            now = self.clock()
            if now > deadline:
                raise DeadlineExceededError(driver, overrun=now - deadline)

    #: Guards warning aggregation (parallel bodies may degrade concurrently).
    _warnings_lock = threading.Lock()

    def _degrade(self, driver: str, error: BaseException, context,
                 counters: Books) -> bool:
        """Does this failure degrade the run instead of propagating?  If
        so, count it and append (or aggregate into) the run's typed
        degradation warnings; the caller then returns an empty result, or
        ends the stream.

        Only *unavailability* faults degrade — retryable classes whose
        budget ran out, and open breakers.  Malformed requests, spent
        deadlines and missing drivers always propagate: degrading those
        would hide bugs, not outages.
        """
        if context is None or getattr(context, "on_source_failure", "fail") \
                != "degrade":
            return False
        if not (is_retryable_fault(error)
                or isinstance(error, CircuitOpenError)):
            return False
        counters.count("degraded")
        statistics = context.statistics
        error_type = type(error).__name__
        with ResilienceLayer._warnings_lock:
            for warning in statistics.warnings:
                if warning.driver == driver \
                        and warning.error_type == error_type:
                    warning.requests_dropped += 1
                    return True
            statistics.warnings.append(SourceDegradedWarning(driver, error))
        return True


class RecoveringStream:
    """Resume a lazy scan cursor across mid-stream faults, bit-identically.

    What a configured driver's lazy result is wrapped in at dispatch: the
    re-issue state (request, policy, breaker, the live cursor and how many
    elements were delivered).  Every scan site consumes it through
    ``scan_stream``, which asks it for :class:`_RecoveringCountingStream` —
    scan accounting and recovery in one per-element frame, *below* which
    the re-issued cursor's already-seen prefix is consumed, so a drained
    recovered run reports exactly the fault-free ``scan_elements`` and
    yields exactly the fault-free element sequence (sources are assumed
    deterministic across re-issues, which the engine's drivers are; a
    re-issue that ends *before* the prefix is complete is a terminal error,
    never a silent short stream).

    A fault event consumes one recovery from a consecutive-failure budget of
    ``policy.max_attempts - 1``; a fresh element after a re-issue resets
    it, so eventually-succeeding fault schedules always drain while a
    permanently dead source still fails fast.  A re-issue is an attempt
    like any other: it holds a slot of the driver's gate.
    """

    def __init__(self, layer: ResilienceLayer, driver: str, request,
                 raw: Callable, policy: RetryPolicy,
                 breaker: Optional[CircuitBreaker],
                 counters: Books, context, first_result):
        self._layer = layer
        self._driver = driver
        self._request = request
        self._raw = raw
        self._policy = policy
        self._breaker = breaker
        self._counters = counters
        self._context = context
        self._source = first_result
        self._iterator = iter(first_result)
        self._yielded = 0
        self._consecutive_faults = 0

    def _handle_fault(self, error: BaseException) -> bool:
        """One mid-stream fault event: account, then re-issue.

        Returns ``True`` when a replacement cursor is in place, ``False``
        when the run degrades (the stream ends, announced by a warning).
        Raises when the fault is terminal, the budget is spent, or the
        deadline passed.
        """
        layer = self._layer
        self._counters.count("midstream_faults")
        if self._breaker is not None:
            self._breaker.record_failure()
        _close_quietly(self._source)
        self._consecutive_faults += 1
        try:
            if not is_retryable_fault(error) \
                    or self._consecutive_faults >= self._policy.max_attempts:
                raise error
            layer._book_retry(self._driver, self._consecutive_faults,
                              self._policy, self._counters, self._context)
            result = layer._attempt(self._driver, self._request, self._raw,
                                    self._policy, self._breaker,
                                    self._counters, self._context)
        except Exception as final:  # noqa: BLE001 - may degrade below
            if layer._degrade(self._driver, final, self._context,
                              self._counters):
                return False
            raise
        self._source = result
        self._iterator = iter(result)
        return True

    def close(self) -> None:
        """Release the current underlying cursor (early termination)."""
        _close_quietly(self._source)
        iterator = self._iterator
        if iterator is not self._source:
            _close_quietly(iterator)

    def make_counting_stream(self, statistics) -> "_RecoveringCountingStream":
        """The hook ``scan_stream`` probes for: a merged counting+recovering
        wrapper, so the happy path pays one frame per element."""
        return _RecoveringCountingStream(self, statistics)

    def __iter__(self):
        # A direct caller of the engine's executors iterates the same
        # wrapper, booking its elements to no run.
        return _RecoveringCountingStream(self, EvalStatistics())


class _RecoveringCountingStream(_CountingStream):
    """Scan accounting and mid-stream recovery in ONE per-element frame.

    The happy path is exactly the plain :class:`_CountingStream` hot path
    plus a single integer increment (the delivered-prefix position the
    recovery re-issue needs); every fault branch lives in the cold
    ``except`` path: :class:`RecoveringStream`'s ``_handle_fault``
    classifies, accounts and re-issues, and :meth:`_recover` — the one
    recovery loop — consumes the replacement cursor's delivered prefix
    *without* touching ``scan_elements``, which is what keeps a recovered
    run's ``elements_fetched`` bit-identical to a fault-free run's.
    """

    def __init__(self, stream: "RecoveringStream", statistics):
        self._stream = stream
        #: ``close()`` (inherited) closes the iterator then the source —
        #: pointing the source at the RecoveringStream reaches whatever
        #: cursor is live after any number of re-issues.
        self._source = stream
        self._inner = stream._iterator
        self._statistics = statistics
        self._scope = None

    def __next__(self):
        try:
            value = next(self._inner)
        except StopIteration:
            self._drained()
            raise
        except Exception as error:  # noqa: BLE001 - classified in _recover
            value = self._recover(error)
        self._statistics.scan_elements += 1
        self._stream._yielded += 1
        return value

    def _recover(self, error: BaseException):
        """Cold path: cycle fault → re-issue → prefix skip until a fresh
        element arrives (returned), the stream degrades or legitimately
        ends (``StopIteration``), or the fault is terminal (raises)."""
        stream = self._stream
        while True:
            if not stream._handle_fault(error):
                self._drained()  # degraded: announced end of stream
                raise StopIteration
            iterator = self._inner = stream._iterator
            skipped = False
            try:
                for _ in range(stream._yielded):
                    next(iterator)
                skipped = True
                value = next(iterator)
            except StopIteration:
                if not skipped:
                    # The replacement ended inside the already-delivered
                    # prefix: the source changed between issues.  Silent
                    # truncation is never an option.
                    raise DriverError(
                        f"driver {stream._driver!r} returned a shorter "
                        f"stream on recovery re-issue (source changed "
                        f"mid-query)") from None
                self._drained()  # re-issue ended exactly at the prefix
                raise
            except Exception as next_error:  # noqa: BLE001 - next cycle
                error = next_error
                continue
            stream._counters.count("recoveries")
            if stream._context is not None:
                stream._context.statistics.recovered_faults += 1
            stream._consecutive_faults = 0
            return value

    def _drained(self) -> None:
        scope = self._scope
        if scope is not None:
            self._scope = None
            scope.unregister(self)


def _is_eager(result: object) -> bool:
    """Is this driver result a fully materialised collection?

    Mirrors the check every scan site performs: eager collections need no
    recovery wrapper (the request either failed — handled by the attempt
    loop — or delivered everything).
    """
    from ..core.values import CBag, CList, CSet

    return isinstance(result, (CSet, CBag, CList))


def _close_quietly(resource: object) -> None:
    close = getattr(resource, "close", None)
    if close is not None:
        try:
            close()
        except Exception:  # pragma: no cover - best-effort release
            pass
