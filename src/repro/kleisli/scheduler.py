"""One scheduler for remote requests: a bounded, order-preserving window.

Section 4, "Laziness, Latency, and Concurrency": the system issues several
requests to a remote server at once, but *"the server S may only be able to
handle a limited number of requests at a time, say five"*, and unconsumed
replies must not pile up.  :class:`Scheduler` is that one mechanism: a
sliding window of at most ``level`` tasks is in flight while the consumer
processes earlier replies, results come back in submission order, and the
source of tasks is pulled no further than one window ahead.  It serves
every lowering of the parallel-loop operator the optimizer introduces
around remote inner loops.

The paper closes the section with its reference [43]: *"techniques to
automatically adjust the level of concurrency based on the capability of
servers and on resource availability are being developed."*  That is the
same mechanism with a window that may move: an ``adaptive`` scheduler hands
the level to a :class:`_WindowController`, which probes the server with an
additive-increase / multiplicative-decrease policy — ramping up while
replies stay fast, backing off (and retrying) when the server rejects
requests or its per-request latency degrades.  A *pinned* scheduler keeps
the level at ``max_workers``: it reads no clock, keeps no samples and
retries nothing.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import wait as _wait_futures
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, TypeVar

from ..core.errors import RemoteSourceError

__all__ = ["Scheduler"]

T = TypeVar("T")
R = TypeVar("R")


def _drain_futures(futures: Iterable[Future]) -> None:
    """Settle abandoned in-flight futures (early-close cleanup).

    Cancels what has not started; awaits what has (a running request cannot
    be cancelled, and its reply must not arrive with the pool still owed
    work after the consumer is gone).
    """
    for future in futures:
        future.cancel()
        if not future.cancelled():
            try:
                future.result()
            except Exception:
                pass


class _WindowController:
    """The moving window's policy: AIMD plus throughput/latency sampling.

    An adaptive :class:`Scheduler` feeds it one sample per completed
    *window* of results — throughput and mean per-task latency, both
    derived from timing inside the worker so consumer-side waiting never
    pollutes either.  Decisions:

    * a server **rejection** halves the level and pins a ceiling at the
      rejected level, which is never offered again;
    * a sample that **improves** best throughput by ``IMPROVEMENT_FACTOR``
      adds a worker;
    * a sample whose throughput **collapsed** by more than
      ``degradation_threshold`` — or (when latency is measured) whose
      per-item latency rose by that factor while throughput did not improve,
      i.e. extra requests are only queueing at the server — removes one;
    * anything else is a **plateau**: hold the level, probing one step up
      every ``PROBE_INTERVAL`` samples.

    Sub-millisecond samples (``LATENCY_FLOOR``) carry no congestion signal
    above Python's timer noise; such windows only ramp — with nothing to
    overlap, a too-large window costs nothing, and decreases then come from
    explicit rejections only.
    """

    #: Relative throughput improvement that justifies adding a worker.
    IMPROVEMENT_FACTOR = 1.05
    #: On a plateau, probe one level up every this many samples.
    PROBE_INTERVAL = 4
    #: Below this per-item latency (seconds) a sample is treated as noise.
    LATENCY_FLOOR = 0.001

    __slots__ = ("max_workers", "level", "degradation_threshold",
                 "best_throughput", "best_latency", "plateau", "rejection_ceiling")

    def __init__(self, max_workers: int, initial: int, degradation_threshold: float):
        self.max_workers = max_workers
        self.level = initial
        self.degradation_threshold = degradation_threshold
        self.best_throughput: Optional[float] = None
        self.best_latency: Optional[float] = None
        self.plateau = 0
        self.rejection_ceiling: Optional[int] = None

    def on_rejection(self, level: int) -> None:
        """AIMD decrease after a server rejection at ``level``.

        The server pushed back: never offer it that many again (the
        rejection ceiling), halve the level, and re-baseline both samples at
        the reduced level.
        """
        ceiling = max(1, level - 1)
        if self.rejection_ceiling is not None:
            ceiling = min(ceiling, self.rejection_ceiling)
        self.rejection_ceiling = ceiling
        self.best_throughput = None
        self.best_latency = None
        self.plateau = 0
        self.level = max(1, level // 2)

    def on_sample(self, level: int, throughput: float,
                  latency: Optional[float] = None) -> None:
        """Feed one completed window sample; adjusts ``level``."""
        if latency is not None and latency < self.LATENCY_FLOOR:
            # Too fast to measure: ramp freely, and leave the baselines
            # UNTOUCHED — recording a noise-era throughput (~level/µs, e.g.
            # while items hit a local cache) as "best" would misread every
            # later healthy real-latency window as a collapse and serialize
            # a perfectly fine stream.  The first measurable window
            # establishes the baseline instead.
            self.plateau = 0
            self.level = self.raised(level)
            return
        if self.best_throughput is None:
            # The first measurable sample (or the first after a rejection)
            # only establishes the baseline.
            self.best_throughput = throughput
            self.best_latency = latency
            self.level = self.raised(level)
            return
        if throughput >= self.best_throughput * self.IMPROVEMENT_FACTOR:
            # More workers genuinely helped: keep ramping up.
            self.best_throughput = throughput
            if latency is not None and (self.best_latency is None
                                        or latency < self.best_latency):
                self.best_latency = latency
            self.plateau = 0
            self.level = self.raised(level)
            return
        if (throughput < self.best_throughput / self.degradation_threshold
                or self._latency_degraded(latency)):
            # Throughput collapsed, or each request got slower without any
            # throughput gain — the server is degrading under our load.
            # DECAY the stale bests toward what was just observed: keeping
            # them unchanged lets one lucky sample drive a decrease spiral
            # all the way to 1, while erasing them entirely would read
            # *sustained* degradation as a fresh healthy baseline and ramp
            # straight back up.  Decayed, sustained degradation keeps
            # walking the level down (a few steps, then plateau) and a
            # genuine recovery soon registers as improvement again.
            self.best_throughput = max(
                throughput, self.best_throughput / self.degradation_threshold)
            if self.best_latency is not None and latency is not None:
                self.best_latency = min(
                    latency, self.best_latency * self.degradation_threshold)
            self.plateau = 0
            self.level = max(1, level - 1)
            return
        # Plateau: the server absorbed the extra requests without speeding
        # up.  Hold the level, but probe upwards occasionally so a slow
        # first sample cannot pin the level forever.
        self.plateau += 1
        if self.plateau >= self.PROBE_INTERVAL:
            self.plateau = 0
            self.level = self.raised(level)
        else:
            self.level = level

    def _latency_degraded(self, latency: Optional[float]) -> bool:
        if latency is None or self.best_latency is None:
            return False
        if latency < self.LATENCY_FLOOR or self.best_latency < self.LATENCY_FLOOR:
            return False
        return latency > self.best_latency * self.degradation_threshold

    def raised(self, level: int) -> int:
        """One more worker, never past the pool cap or a rejected level."""
        ceiling = self.max_workers
        if self.rejection_ceiling is not None:
            ceiling = min(ceiling, self.rejection_ceiling)
        return min(ceiling, level + 1)


class Scheduler:
    """Runs tasks with at most ``level`` in flight, yielding replies in order.

    Pinned (the default), ``level`` is ``max_workers`` for the scheduler's
    life and an error from a task — a server rejection included — reaches
    the caller as it is.  With ``adaptive`` set, ``level`` starts at
    ``initial_workers`` and follows a :class:`_WindowController` between 1
    and ``max_workers``; a task the server rejected (a
    :class:`~repro.core.errors.RemoteSourceError`, what a
    :class:`~repro.net.remote.RemoteSource` raises past its cap) is re-issued
    at the reduced level, up to ``max_retries`` times, before its error
    propagates.

    ``level_history`` records every level the window moved to and
    ``overload_events`` counts rejections, which the tests and the adaptive
    concurrency benchmark assert on; both stay empty / zero when pinned.

    The worker pool is created by the first submission and joined by
    :meth:`close` (or the context-manager protocol); a window of one runs
    on the caller's thread and never builds a pool.  One consumer thread
    drives a scheduler (every activation of a parallel loop builds its own);
    only the pool hand-over in :meth:`close` is locked, because an
    evaluation scope may close it from another thread.
    """

    def __init__(self, max_workers: int = 5, adaptive: bool = False,
                 initial_workers: int = 1, degradation_threshold: float = 1.5,
                 max_retries: int = 3,
                 clock: Optional[Callable[[], float]] = None):
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if initial_workers < 1 or initial_workers > max_workers:
            raise ValueError("initial_workers must be between 1 and max_workers")
        if degradation_threshold <= 1.0:
            raise ValueError("degradation_threshold must be greater than 1.0")
        #: The time source behind every `_WindowController` sample.  Tests
        #: inject a counter-based fake so window latency samples — and
        #: therefore the controller's ramp/hold/shrink decisions — are exact
        #: and deterministic instead of riding the wall clock's jitter
        #: (which made sleep-calibrated assertions flake under load).
        self._clock = time.perf_counter if clock is None else clock
        self.max_workers = max_workers
        self.max_retries = max_retries
        self.tasks_submitted = 0
        self.retries = 0
        self.overload_events = 0
        self.level_history: List[int] = []
        self._controller = _WindowController(
            max_workers, initial_workers, degradation_threshold) if adaptive else None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()

    @property
    def level(self) -> int:
        """The current window: the controller's level, or the pinned cap."""
        controller = self._controller
        return self.max_workers if controller is None else controller.level

    def apply_plan_hint(self, level: int) -> None:
        """Start a moving window at a planner-suggested level.

        The cost-based planner knows (from registered/observed latency)
        that a source is slow before the first request goes out; probing up
        from one worker would waste the first few windows rediscovering
        that.  The hint only sets the *starting* level — clamped to
        ``[1, max_workers]`` and any learned rejection ceiling — and every
        later sample/rejection adapts it exactly as before, so a wrong plan
        costs at most the adjustment the probe would have paid anyway.  A
        pinned window has no starting level to suggest: the hint is ignored.
        """
        controller = self._controller
        if controller is None:
            return
        target = max(1, min(int(level), self.max_workers))
        if controller.rejection_ceiling is not None:
            target = min(target, controller.rejection_ceiling)
        controller.level = target
        self.level_history.append(target)

    def close(self) -> None:
        """Shut down the worker pool (joins its threads); safe to call twice."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _submit(self, run: Callable[[T], R], task: T) -> Future:
        if self.max_workers == 1:
            # A window of one has nothing to overlap: run on the caller's
            # thread (the dispatch loop awaits this future next), no pool.
            future: Future = Future()
            try:
                future.set_result(run(task))
            except Exception as error:
                future.set_exception(error)
            return future
        with self._lock:
            pool = self._pool
            if pool is None:
                pool = self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers)
        return pool.submit(run, task)

    def prefetch(self, function: Callable[[Sequence[T]], R],
                 tasks: Iterable[Sequence[T]]) -> Iterator[R]:
        """Apply ``function`` to every task through the window, yielding in order.

        A task is a list of work units (one source element, or a chunk of
        them) and holds one window slot.  At most ``level`` tasks are in
        flight while the consumer processes earlier replies, so remote
        latency overlaps consumption end-to-end.  Each yielded reply frees
        a slot and the next task is issued immediately — and because
        ``tasks`` is pulled lazily, the source itself is only consumed one
        window ahead of the consumer (bounding unconsumed replies, the
        paper's resource-control concern).

        A moving window is sampled once per ``level`` completed replies:
        the mean per-task latency measured *inside* the worker (so a slow
        consumer never reads as a slow server) and the throughput it
        implies in work units per second — task sizes are weighed in, so
        decisions stay comparable across task granularities, and a chunk
        amortizes enough work to sit above the sub-millisecond noise floor
        where individual local items would not.  A server rejection halves
        the window and pins the rejection ceiling; the rejected task is
        re-issued whole, preserving result order.

        Abandoning the iterator (``close()``) stops issuing new requests;
        already in-flight ones are drained so the pool is left quiescent.
        """
        controller = self._controller
        if controller is None:
            run = function
        else:
            clock = self._clock

            def run(task):
                started = clock()
                value = function(task)
                return value, clock() - started

        iterator = iter(tasks)
        # Entries: (task, future, attempts, level at submission).  The level
        # rides along so a whole burst rejected at one level counts as ONE
        # rejection event — reacting once per failed future would compound
        # the halving and pin the rejection ceiling at 1.
        in_flight: deque = deque()
        completed = units = 0
        latency = 0.0
        try:
            while True:
                level = self.level
                while len(in_flight) < level:
                    try:
                        task = next(iterator)
                    except StopIteration:
                        break
                    self.tasks_submitted += 1
                    in_flight.append((task, self._submit(run, task), 0, level))
                if not in_flight:
                    return
                task, future, attempts, submitted_at = in_flight.popleft()
                if controller is None:
                    yield future.result()
                    continue
                try:
                    result, elapsed = future.result()
                except RemoteSourceError:
                    if attempts >= self.max_retries:
                        raise
                    self.retries += 1
                    if self.level >= submitted_at:
                        # First failure seen from the burst submitted at this
                        # level; later failures from the same burst skip the
                        # decrease (the level is already below theirs).
                        self.overload_events += 1
                        controller.on_rejection(submitted_at)
                        self.level_history.append(self.level)
                    # A rejection restarts the sample window at the new level.
                    completed = units = 0
                    latency = 0.0
                    # Let the burst that overloaded the server settle before
                    # re-issuing, or the retry lands on the same congestion
                    # (their results/errors stay stored in the futures and
                    # are handled in order as they are popped).
                    _wait_futures([entry[1] for entry in in_flight])
                    in_flight.appendleft((task, self._submit(run, task),
                                          attempts + 1, self.level))
                    continue
                completed += 1
                latency += elapsed
                units += len(task)
                if completed >= level:
                    mean_latency = latency / completed
                    # Little's-law throughput estimate: ``level`` tasks in
                    # flight, each taking ``mean_latency`` (measured inside
                    # the worker), complete at level/latency per second —
                    # derived purely from worker-side timing, so a consumer
                    # that pauses between next() calls can never read as a
                    # server throughput collapse (a wall-clock window
                    # would).  Weighted by mean units per task to stay in
                    # work units per second.
                    controller.on_sample(
                        level,
                        throughput=level * (units / completed)
                        / max(mean_latency, 1e-9),
                        latency=mean_latency)
                    if self.level != level:
                        self.level_history.append(self.level)
                    completed = units = 0
                    latency = 0.0
                yield result
        finally:
            _drain_futures(entry[1] for entry in in_flight)
