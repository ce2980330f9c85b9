"""One scheduler for remote requests: a bounded, order-preserving window.

Section 4, "Laziness, Latency, and Concurrency": the system issues several
requests to a remote server at once, but *"the server S may only be able to
handle a limited number of requests at a time, say five"*, and unconsumed
replies must not pile up.  :class:`Scheduler` is that one mechanism: a
sliding window of at most ``level`` tasks is in flight while the consumer
processes earlier replies, results come back in submission order, and the
source of tasks is pulled no further than one window ahead.  It serves
every lowering of the two loops the optimizer introduces around remote
requests: a parallel loop, whose task is one source element (one request
for a server that takes one per round trip), and a bind join, whose task is
one batch of ``remote_max_chunk`` requests (one round trip for a server
that ships batches).

The paper closes the section with its reference [43]: *"techniques to
automatically adjust the level of concurrency based on the capability of
servers and on resource availability are being developed."*  A server that
*declares* its capability is taken at its word: the loop is pinned at the
declared cap and the engine's per-driver gate holds every request under it.
A server that declares nothing gets a window that moves only when the
server says no: on a rejection (a
:class:`~repro.core.errors.RemoteSourceError`) the window settles, narrows
to the number of its requests the server admitted, and re-issues the
rejected task.  It never widens again and reads no clock.

Measured before choosing (40 requests at 10 ms to a server that declared
nothing, the median of 10-12 alternating runs): against a cap-3 server a
pinned window of 5 fails, and with ``RetryPolicy(max_attempts=5)`` takes
358 ms, while a moving window takes 160 ms.  An earlier moving window also
*widened*, by sampling throughput and latency (AIMD); wherever nothing was
rejected that cost time — 107 ms against a pinned window's 86 ms on a
cap-16 server — and it was deleted.  The rejection-only window runs those
shapes as fast as a pinned one and reaches a cap-3 server's width in one
step.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import wait as _wait_futures
from typing import Callable, Iterable, Iterator, List, Optional, TypeVar

from ..core.errors import RemoteSourceError

__all__ = ["Scheduler"]

T = TypeVar("T")
R = TypeVar("R")

#: How many times a moving window re-issues one rejected task before the
#: rejection reaches the caller.
MAX_RETRIES = 3


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


class Scheduler:
    """Runs tasks with at most ``level`` in flight, yielding replies in order.

    ``level`` starts at ``max_workers``.  Pinned (the default), it stays
    there and an error from a task — a server rejection included — reaches
    the caller as it is.  With ``adaptive`` set the window moves, but only
    down: a task the server rejected (a
    :class:`~repro.core.errors.RemoteSourceError`, what a
    :class:`~repro.net.remote.RemoteSource` raises past its cap) narrows
    ``level`` to what the server admitted of that window and is re-issued,
    up to :data:`MAX_RETRIES` times, before its error propagates.

    ``level_history`` records every level the window moved to, and
    ``overload_events`` / ``retries`` count narrowings and re-issues, which
    the tests and the adaptive concurrency benchmark assert on; all stay
    empty / zero when pinned.

    The worker pool is created by the first submission and joined by
    :meth:`close` (or the context-manager protocol); a window of one runs
    on the caller's thread and never builds a pool.  One consumer thread
    drives a scheduler (every activation of a parallel loop builds its own);
    only the pool hand-over in :meth:`close` is locked, because an
    evaluation scope may close it from another thread.
    """

    def __init__(self, max_workers: int = 5, adaptive: bool = False):
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers
        self.adaptive = adaptive
        self.level = max_workers
        self.tasks_submitted = 0
        self.retries = 0
        self.overload_events = 0
        self.level_history: List[int] = []
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()

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

    def prefetch(self, function: Callable[[T], R],
                 tasks: Iterable[T]) -> Iterator[R]:
        """Apply ``function`` to every task through the window, yielding in order.

        A task is a list of work units (a parallel loop hands one source
        element, a bind join one batch of requests) and holds one window
        slot.  At most ``level`` tasks are in
        flight while the consumer processes earlier replies, so remote
        latency overlaps consumption end-to-end.  Each yielded reply frees
        a slot and the next task is issued immediately — and because
        ``tasks`` is pulled lazily, the source itself is only consumed one
        window ahead of the consumer (bounding unconsumed replies, the
        paper's resource-control concern).

        A moving window reacts to a rejection once per window: it lets the
        window settle, counts the rejections among the tasks submitted at
        that level, and narrows to the rest — what the server admitted.
        The rejected task is re-issued whole, preserving result order.

        Abandoning the iterator (``close()``) stops issuing new requests;
        already in-flight ones are drained so the pool is left quiescent.
        """
        iterator = iter(tasks)
        # Entries: (task, future, attempts, level at submission).  The level
        # rides along so a whole window rejected at one level narrows ONCE —
        # its later rejections are already counted in that one narrowing.
        in_flight: deque = deque()
        try:
            while True:
                level = self.level
                while len(in_flight) < level:
                    try:
                        task = next(iterator)
                    except StopIteration:
                        break
                    self.tasks_submitted += 1
                    in_flight.append((task, self._submit(function, task), 0, level))
                if not in_flight:
                    return
                task, future, attempts, submitted_at = in_flight.popleft()
                if not self.adaptive:
                    yield future.result()
                    continue
                try:
                    result = future.result()
                except RemoteSourceError:
                    if attempts >= MAX_RETRIES:
                        raise
                    self.retries += 1
                    # Let the window that overloaded the server settle: the
                    # retry must not land on the same congestion, and its
                    # rejections must all be in before they are counted.
                    _wait_futures([entry[1] for entry in in_flight])
                    if self.level >= submitted_at:
                        rejected = 1 + sum(
                            1 for entry in in_flight if entry[3] == submitted_at
                            and isinstance(entry[1].exception(), RemoteSourceError))
                        admitted = max(1, submitted_at - rejected)
                        self.overload_events += 1
                        if admitted != self.level:
                            self.level = admitted
                            self.level_history.append(admitted)
                    in_flight.appendleft((task, self._submit(function, task),
                                          attempts + 1, self.level))
                    continue
                yield result
        finally:
            _drain_futures(entry[1] for entry in in_flight)
