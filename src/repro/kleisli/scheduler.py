"""One scheduler for remote requests: a bounded, order-preserving window.

Section 4, "Laziness, Latency, and Concurrency": the system issues several
requests to a remote server at once, but *"the server S may only be able to
handle a limited number of requests at a time, say five"*, and unconsumed
replies must not pile up.  :class:`Scheduler` is that one mechanism: at
most ``level`` tasks in flight, replies in submission order, the source
pulled no further than one window ahead.  A task is one element of a
parallel loop (one request) or one batch of a bind join (one round trip).

The paper closes the section with its reference [43]: *"techniques to
automatically adjust the level of concurrency based on the capability of
servers and on resource availability are being developed."*  A server that
*declares* its capability is pinned at its cap (the engine's per-driver
gate holds every request under it).  For one that declares nothing the
window moves only when the server says no: on a rejection it settles,
narrows to the number of requests the server admitted and re-issues the
rejected task.  It never widens again and reads no clock.

A window owns no threads.  Each task goes to its engine's one bounded set
of daemon workers (:class:`_Workers`): an idle worker, else a new one below
the set's size, else the submitting thread runs it (caller-runs), so a
nested loop never waits for a worker and a nest holds at most the set's
size plus its callers.  Nothing is cancelled: an abandoned window waits for
its tasks.  A worker idle for :data:`_IDLE_SECONDS` exits (no ``close()``).
"""

from __future__ import annotations

import threading
from collections import deque
from queue import Empty, SimpleQueue
from typing import Callable, Iterable, Iterator, List, Optional

from ..core.errors import RemoteSourceError

__all__ = ["Scheduler"]

#: How many times a moving window re-issues one rejected task before the
#: rejection reaches the caller.
MAX_RETRIES = 3

#: How long a worker waits for its next task before it exits, in seconds.
_IDLE_SECONDS = 5.0


class _Task:
    """A submitted task's value or error; ``_done`` is held while a worker
    owes its run."""

    __slots__ = ("function", "argument", "value", "error", "_done")

    def __init__(self, function: Callable, argument) -> None:
        self.function, self.argument = function, argument
        self.value = self.error = None
        self._done = threading.Lock()

    def run(self) -> None:
        try:
            self.value = self.function(self.argument)
        except BaseException as error:
            self.error = error
            del self    # the error's traceback holds this frame: no cycle

    def wait(self) -> "_Task":
        with self._done:
            return self

    def result(self):
        if self.wait().error is not None:
            raise self.error
        return self.value


class _Workers:
    """At most ``size`` daemon worker threads, shared by every window."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.live = 0   # threads started and not yet exited
        self.idle = 0   # workers waiting for a task, less the tasks queued
        self._queue: SimpleQueue = SimpleQueue()
        self._lock = threading.Lock()

    def submit(self, function: Callable, argument) -> _Task:
        """``function(argument)`` on an idle worker, else on a new one while
        the set is below its size, else on this thread (caller-runs)."""
        task = _Task(function, argument)
        with self._lock:
            start = self.idle == 0 and self.live < self.size
            queued = start or self.idle > 0
            if queued:
                self.live += start
                self.idle -= not start
                task._done.acquire()
                self._queue.put(task)
        if start:
            threading.Thread(target=self._work, daemon=True,
                             name="kleisli-worker").start()
        elif not queued:
            task.run()
        return task

    def _work(self) -> None:
        while True:
            try:
                task = self._queue.get(timeout=_IDLE_SECONDS)
            except Empty:   # a task handed over as it expired is queued: take it
                with self._lock:
                    if self._queue.empty():
                        self.idle, self.live = self.idle - 1, self.live - 1
                        return
                continue
            task.run()
            with self._lock:    # idle before the reply is read: a window
                self.idle += 1  # sent right after it finds this worker
            task._done.release()
            task = None     # keep no run's closure alive while idle


class Scheduler:
    """Runs tasks with at most ``level`` in flight, yielding replies in order.

    ``level`` starts at ``max_workers``.  Pinned (the default), it stays
    there and a task's error, a rejection included, reaches the caller as
    it is.  With ``adaptive`` set the window moves, only down: a task the
    server rejected (what a :class:`~repro.net.remote.RemoteSource` raises
    past its cap) narrows ``level`` to what the server admitted of that
    window and is re-issued, up to :data:`MAX_RETRIES` times.
    ``level_history``, ``overload_events`` and ``retries`` record the moves,
    narrowings and re-issues.  Tasks run on ``workers`` (the engine's set;
    without one, a set ``max_workers`` wide); a window of one runs them on
    the caller's thread.  One consumer thread drives a scheduler.
    """

    def __init__(self, max_workers: int = 5, adaptive: bool = False,
                 workers: Optional[_Workers] = None):
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers
        self.adaptive = adaptive
        self.level = max_workers
        self.tasks_submitted = self.retries = self.overload_events = 0
        self.level_history: List[int] = []
        self._workers = (_Workers(0) if max_workers == 1   # all inline
                         else workers or _Workers(max_workers))

    def prefetch(self, function: Callable, tasks: Iterable) -> Iterator:
        """Apply ``function`` to every task through the window, yielding in order.

        A task is a list of work units and holds one window slot.  Each
        yielded reply frees a slot for the next task, and ``tasks`` is
        pulled lazily, only one window ahead of the consumer.  A moving
        window reacts to a rejection once per window: it lets the window
        settle, counts the rejections among the tasks submitted at that
        level, narrows to the rest and re-issues the rejected task whole.
        Abandoning the iterator (``close()``) stops issuing tasks and waits
        for the ones in flight.
        """
        iterator = iter(tasks)
        submit = self._workers.submit
        # Entries: (task, handle, attempts, level at submission).  The level
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
                    in_flight.append((task, submit(function, task), 0, level))
                if not in_flight:
                    return
                task, handle, attempts, submitted_at = in_flight.popleft()
                if not self.adaptive:
                    yield handle.result()
                    continue
                try:
                    result = handle.result()
                except RemoteSourceError:
                    if attempts >= MAX_RETRIES:
                        raise
                    self.retries += 1
                    # Let the window that overloaded the server settle: the
                    # retry must not land on the same congestion, and its
                    # rejections must all be in before they are counted.
                    for entry in in_flight:
                        entry[1].wait()
                    if self.level >= submitted_at:
                        rejected = 1 + sum(
                            1 for entry in in_flight if entry[3] == submitted_at
                            and isinstance(entry[1].error, RemoteSourceError))
                        admitted = max(1, submitted_at - rejected)
                        self.overload_events += 1
                        if admitted != self.level:
                            self.level = admitted
                            self.level_history.append(admitted)
                    in_flight.appendleft((task, submit(function, task),
                                          attempts + 1, self.level))
                    continue
                yield result
        finally:
            for entry in in_flight:
                entry[1].wait()
