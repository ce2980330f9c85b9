"""Simulated remote data sources.

In 1995 the paper's prototype reached GDB in Baltimore and GenBank in Bethesda
over the Internet; latency and per-server concurrency limits are what make the
laziness and bounded-concurrency optimizations of Section 4 matter.  Here a
:class:`RemoteSource` wraps any callable "server" with:

* a fixed per-request latency (``time.sleep``),
* a hard cap on concurrent in-flight requests — exceeding it raises
  :class:`~repro.core.errors.RemoteSourceError`, exactly the failure mode the
  paper warns about ("the server S may only be able to handle a limited number
  of requests at a time, say five"),
* a call log — how many requests, the first start, the last finish and the
  most in flight at once — which the concurrency benchmark uses to verify
  that requests really overlapped and never exceeded the cap.  It is a few
  numbers, not a record per request: a long run makes tens of thousands.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional

from ..core.errors import RemoteSourceError

__all__ = ["RemoteCallLog", "RemoteSource"]


class RemoteCallLog:
    """What the requests made against a remote source add up to."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0
        self._first_started: Optional[float] = None
        self._last_finished: Optional[float] = None
        self._peak = 0

    def admitted(self, in_flight: int) -> None:
        """A request was admitted with ``in_flight`` requests (itself
        included) now in flight; called under the source's admission lock."""
        if in_flight > self._peak:
            self._peak = in_flight

    def record(self, started: float, finished: float) -> None:
        with self._lock:
            self._count += 1
            if self._first_started is None or started < self._first_started:
                self._first_started = started
            if self._last_finished is None or finished > self._last_finished:
                self._last_finished = finished

    def __len__(self) -> int:
        return self._count

    def max_concurrency(self) -> int:
        """The maximum number of requests that were in flight at the same instant."""
        return self._peak

    def wall_clock(self) -> float:
        """Total elapsed time from the first request start to the last finish."""
        if self._first_started is None:
            return 0.0
        return self._last_finished - self._first_started


class RemoteSource:
    """Wrap a callable server with latency, a concurrency cap, and faults.

    Beyond the cap rejection (retryable :class:`RemoteSourceError`, see the
    fault taxonomy in :mod:`repro.core.errors`), two configurable failure
    modes make the source a deterministic chaos fixture for resilience
    tests:

    * ``failure_rate`` — every Nth admitted request fails (``0.1`` = every
      10th; deterministic by request ordinal, not random, so runs repeat);
    * ``fail_after`` — requests succeed until N have been served, then every
      request fails (a server going down mid-query; re-arm by resetting
      :attr:`requests_admitted` or constructing afresh).

    Both raise :class:`RemoteSourceError` (retryable) *after* admission, so
    breaker/retry accounting sees them as server faults, not cap pressure.
    ``clock`` and ``sleeper`` are injectable so resilience tests wire a fake
    clock and never sleep through the simulated latency.
    """

    def __init__(self, name: str, handler: Callable[..., object],
                 latency: float = 0.02, max_concurrent_requests: int = 5,
                 failure_rate: float = 0.0,
                 fail_after: Optional[int] = None,
                 clock: Callable[[], float] = time.monotonic,
                 sleeper: Callable[[float], None] = time.sleep):
        self.name = name
        self.handler = handler
        self.latency = latency
        self.max_concurrent_requests = max_concurrent_requests
        self.failure_rate = failure_rate
        self.fail_after = fail_after
        self.clock = clock
        self.sleeper = sleeper
        self.log = RemoteCallLog()
        self._lock = threading.Lock()
        self._in_flight = 0
        #: Requests (and batches) that passed admission, ever — the ordinal
        #: the deterministic failure modes key on.
        self.requests_admitted = 0
        #: Requests deliberately failed by a configured failure mode.
        self.faults_injected = 0

    def _admit(self, what: str) -> None:
        """Take one concurrency slot and apply the configured failure modes."""
        with self._lock:
            if self._in_flight >= self.max_concurrent_requests:
                raise RemoteSourceError(
                    f"server {self.name!r} rejected the {what}: already handling "
                    f"{self._in_flight} concurrent requests (cap {self.max_concurrent_requests})"
                )
            self._in_flight += 1
            self.requests_admitted += 1
            ordinal = self.requests_admitted
            fail = False
            if self.fail_after is not None and ordinal > self.fail_after:
                fail = True
            elif self.failure_rate > 0:
                # Every round(1/rate)th request, deterministically.
                period = max(1, round(1.0 / self.failure_rate))
                fail = ordinal % period == 0
            if fail:
                self.faults_injected += 1
                self._in_flight -= 1
                raise RemoteSourceError(
                    f"server {self.name!r} dropped the {what} "
                    f"(injected fault, request #{ordinal})")
            self.log.admitted(self._in_flight)

    def call(self, *args, **kwargs) -> object:
        """Issue one request: admission check, latency, then the wrapped handler."""
        self._admit("request")
        started = self.clock()
        try:
            if self.latency > 0:
                self.sleeper(self.latency)
            return self.handler(*args, **kwargs)
        finally:
            finished = self.clock()
            self.log.record(started, finished)
            with self._lock:
                self._in_flight -= 1

    __call__ = call

    def call_batch(self, payloads: List[object]) -> List[object]:
        """Issue several requests as ONE wire round-trip.

        Models a batched protocol: admission (one concurrency slot), the
        network latency and the call-log entry are paid once for the whole
        batch, then the handler runs per payload.  This is what makes a
        driver's native ``execute_batch`` cheaper than looping ``call`` —
        a chunk of K requests costs one latency instead of K.  A configured
        failure mode fails the whole batch (one wire message, one drop) —
        which is exactly what the engine's per-request batch decomposition
        exists to recover from.
        """
        if not payloads:
            return []
        self._admit("batch")
        started = self.clock()
        try:
            if self.latency > 0:
                self.sleeper(self.latency)
            return [self.handler(payload) for payload in payloads]
        finally:
            finished = self.clock()
            self.log.record(started, finished)
            with self._lock:
                self._in_flight -= 1

    @property
    def request_count(self) -> int:
        return len(self.log)
