"""The scheduler's one dispatch: a sliding window, pinned or moving.

* a scheduler owns no threads: its first submission starts a worker of its
  worker set, whose idle workers serve the next window and exit after an
  idle interval;
* ``prefetch``: a bounded window of in-flight tasks refilled as the
  consumer drains replies, preserving order and never running more than one
  window ahead of the consumer — pinned at ``max_workers``, or (``adaptive``)
  narrowed by the server's rejections.

A task is a list of work units; ``units`` / ``each`` wrap plain items and
per-item functions as one-unit tasks.
"""

import sys
import threading
import time

import pytest

from repro.core.errors import RemoteSourceError
from repro.core.nrc import builder as B
from repro.core.optimizer.parallel import ParallelExt
from repro.core.values import CList, iter_collection
from repro.kleisli import scheduler as scheduler_module
from repro.kleisli.engine import KleisliEngine
from repro.kleisli.scheduler import MAX_RETRIES, Scheduler, _Workers
from repro.net.remote import RemoteSource


def units(items):
    """``items`` as one-unit tasks."""
    return ([item] for item in items)


def each(function):
    """A per-item function as a task function over one-unit tasks."""
    return lambda task: function(task[0])


def _settles(condition, seconds=10.0):
    """Poll ``condition`` until it holds or ``seconds`` pass."""
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


class TestWorkerLifetime:
    """A scheduler owns no threads: its tasks run on a worker set (the
    engine's; here, one of its own), whose idle workers stay for the next
    window and exit after an idle interval."""

    def test_the_first_submission_starts_a_worker_and_idle_workers_exit(
            self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "_IDLE_SECONDS", 0.01)
        scheduler = Scheduler(max_workers=4)
        workers = scheduler._workers
        seen = []

        def plus_one(x):
            seen.append((threading.current_thread().name, workers.live))
            return x + 1

        iterator = scheduler.prefetch(plus_one, range(8))
        assert workers.live == 0, "a worker before any submission"
        assert next(iterator) == 1
        assert list(iterator) == list(range(2, 9))
        assert {name for name, _ in seen} == {"kleisli-worker"}
        assert all(1 <= live <= 4 for _, live in seen)
        assert scheduler._workers is workers, "prefetch replaced the set"
        assert _settles(lambda: workers.live == 0), "an idle worker stayed"
        assert workers.idle == 0

    def test_workers_outlive_a_window_idle_and_bounded(
            self, threads_besides_workers):
        baseline = threads_besides_workers()
        scheduler = Scheduler(max_workers=4)
        list(scheduler.prefetch(lambda x: x, range(8)))
        assert scheduler._workers.live >= 1
        assert threads_besides_workers(scheduler) == baseline

    def test_a_second_window_reuses_the_idle_workers(
            self, threads_besides_workers):
        workers = _Workers(3)
        together = threading.Barrier(3, timeout=10.0)

        def met(x):     # three tasks that only finish together
            together.wait()
            return x

        first = Scheduler(max_workers=3, workers=workers)
        assert list(first.prefetch(met, range(3))) == [0, 1, 2]
        assert workers.live == 3
        baseline = threads_besides_workers(first)
        started = []
        second = Scheduler(max_workers=3, workers=workers)
        assert list(second.prefetch(
            lambda x: started.append(threading.current_thread().name) or x,
            range(12))) == list(range(12))
        assert workers.live == 3, "a warm window started a thread"
        assert set(started) == {"kleisli-worker"}
        assert threads_besides_workers(second) == baseline

    def test_adaptive_keeps_one_worker_set_across_windows(self):
        rejected = []

        def reject_five_once(x):
            if x == 5 and not rejected:
                rejected.append(x)
                raise RemoteSourceError("S", "overloaded")
            return x

        scheduler = Scheduler(max_workers=4, adaptive=True)
        iterator = scheduler.prefetch(each(reject_five_once),
                                      units(range(20)))
        next(iterator)
        workers = scheduler._workers
        assert list(iterator) == list(range(1, 20))
        assert len(scheduler.level_history) >= 1, "the window never moved"
        assert scheduler._workers is workers
        assert workers.idle == workers.live <= 4

    def test_a_scheduler_runs_again_on_its_set(self):
        scheduler = Scheduler(max_workers=2)
        list(scheduler.prefetch(lambda x: x, range(4)))
        assert list(scheduler.prefetch(lambda x: x * 2, range(3))) == [0, 2, 4]
        assert scheduler._workers.idle == scheduler._workers.live <= 2

    def test_a_task_handed_over_as_the_idle_interval_expires_is_run(
            self, monkeypatch):
        """The hand-over races the idle exit: submissions spaced around
        the interval reach workers as their waits time out, and every one
        is run — by a worker that stayed, or by a new one."""
        monkeypatch.setattr(scheduler_module, "_IDLE_SECONDS", 0.002)
        workers = _Workers(2)
        for attempt in range(300):
            time.sleep(0.001 * (attempt % 4))
            task = workers.submit(lambda x: x * 2, attempt)
            assert task._done.acquire(timeout=10.0), f"task {attempt} stranded"
            task._done.release()
            assert task.value == attempt * 2
            assert workers.live <= 2
        assert _settles(lambda: workers.live == 0)
        assert workers.idle == 0


    def test_many_windows_share_one_set_under_contention(self, monkeypatch):
        """Eight consumers, each with a window of three, on one set of four
        whose workers also exit as soon as they idle, the interpreter
        switching threads every 10 microseconds: every reply is right and
        in order, and the set's books balance."""
        monkeypatch.setattr(scheduler_module, "_IDLE_SECONDS", 0.0005)
        workers = _Workers(4)
        replies = {}

        def consume(n):
            scheduler = Scheduler(max_workers=3, workers=workers)
            replies[n] = list(scheduler.prefetch(lambda x: x * n, range(300)))

        consumers = [threading.Thread(target=consume, args=(n,)) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for consumer in consumers:
                consumer.start()
            for consumer in consumers:
                consumer.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(consumer.is_alive() for consumer in consumers)
        assert replies == {n: [x * n for x in range(300)] for n in range(8)}
        assert workers.idle == workers.live <= 4


class TestPinnedPrefetch:
    def test_preserves_order(self):
        scheduler = Scheduler(max_workers=4)
        results = list(scheduler.prefetch(lambda x: x * x, range(20)))
        assert results == [x * x for x in range(20)]

    def test_never_exceeds_the_window_in_flight(self):
        server = RemoteSource("S", lambda x: x, latency=0.002,
                              max_concurrent_requests=100)
        scheduler = Scheduler(max_workers=3)
        list(scheduler.prefetch(server.call, range(30)))
        assert server.log.max_concurrency() <= 3

    def test_consumes_the_source_lazily(self):
        pulled = []

        def source():
            for i in range(100):
                pulled.append(i)
                yield i

        scheduler = Scheduler(max_workers=3)
        iterator = scheduler.prefetch(lambda x: x, source())
        assert next(iterator) == 0
        # At most one window ahead of the consumer (plus the one yielded).
        assert len(pulled) <= 4
        iterator.close()
        assert len(pulled) <= 4, "prefetch kept pulling after close()"

    def test_early_close_leaves_no_busy_worker(self, threads_besides_workers):
        """Closing waits for the tasks in flight: each one that started has
        finished by the time ``close()`` returns."""
        baseline = threads_besides_workers()
        started, finished = [], []

        def slow(x):
            started.append(x)
            time.sleep(0.005)
            finished.append(x)
            return x

        scheduler = Scheduler(max_workers=4)
        iterator = scheduler.prefetch(slow, range(50))
        next(iterator)
        iterator.close()
        assert sorted(finished) == sorted(started) and len(started) < 50
        assert threads_besides_workers(scheduler) == baseline

    def test_window_of_one_is_sequential(self):
        scheduler = Scheduler(max_workers=1)
        assert list(scheduler.prefetch(lambda x: x + 1, range(5))) == [1, 2, 3, 4, 5]
        assert scheduler._workers.live == 0, "window 1 should start no thread"

    def test_overlaps_latency_with_consumption(self):
        """A window of W keeps W requests in flight while the consumer works
        through the replies before them: never more, exactly W as long as W
        are left, and the source pulled no further than one window ahead."""
        level, requests = 5, 20
        # Passed only by ``level`` tasks in flight at once, a window at a time.
        rendezvous = threading.Barrier(level, timeout=10.0)
        lock = threading.Lock()
        running, peaks, pulled = set(), [], []

        def source():
            for i in range(requests):
                pulled.append(i)
                yield i

        def held(x):
            with lock:
                running.add(x)
                peaks.append(len(running))
            rendezvous.wait()
            with lock:
                running.discard(x)
            return x

        scheduler = Scheduler(max_workers=level)
        for consumed, reply in enumerate(scheduler.prefetch(held, source())):
            assert reply == consumed
            assert len(pulled) <= consumed + 1 + level
        assert max(peaks) == level and len(peaks) == requests

    @pytest.mark.parametrize("adaptive", [False, True],
                             ids=["pinned", "moving"])
    def test_reads_no_clock_and_keeps_no_samples(self, adaptive, monkeypatch):
        """Neither window consults a time source: clocks that raise change
        nothing, and the level moves only on a rejection — never for a
        pinned window, once (to what was admitted) for a moving one."""
        import time

        def broken_clock():
            raise AssertionError("the scheduler read the clock")

        for name in ("perf_counter", "monotonic", "time"):
            monkeypatch.setattr(time, name, broken_clock)
        rejected = []

        def reject_four_once(x):
            if x == 4 and adaptive and not rejected:
                rejected.append(x)
                raise RemoteSourceError("S", "overloaded")
            return x * 2

        scheduler = Scheduler(max_workers=3, adaptive=adaptive)
        assert list(scheduler.prefetch(reject_four_once, range(12))) == \
            [x * 2 for x in range(12)]
        monkeypatch.undo()
        assert scheduler.level_history == ([2] if adaptive else [])
        assert scheduler.level == (2 if adaptive else 3)

    def test_an_overload_error_reaches_the_caller_unretried(self):
        calls = []

        def reject_the_third(x):
            calls.append(x)
            if x == 2:
                raise RemoteSourceError("S", "overloaded")
            return x

        scheduler = Scheduler(max_workers=2)
        iterator = scheduler.prefetch(reject_the_third, range(6))
        assert [next(iterator), next(iterator)] == [0, 1]
        with pytest.raises(RemoteSourceError):
            next(iterator)
        assert calls.count(2) == 1
        assert scheduler.retries == 0
        assert scheduler.overload_events == 0


class TestAdaptivePrefetch:
    def test_preserves_order_and_completes(self):
        scheduler = Scheduler(max_workers=4, adaptive=True)
        results = list(scheduler.prefetch(each(lambda x: x * 3),
                                          units(range(25))))
        assert results == [x * 3 for x in range(25)]

    def test_backs_off_on_overload_and_retries(self):
        server = RemoteSource("S", lambda x: x, latency=0.002,
                              max_concurrent_requests=2)
        scheduler = Scheduler(max_workers=8, adaptive=True)
        results = list(scheduler.prefetch(each(server.call),
                                          units(range(30))))
        assert results == list(range(30))
        assert scheduler.overload_events >= 1
        assert scheduler.level <= 2

    def test_one_burst_is_one_rejection_event(self):
        """All failures from a window submitted at one level count as ONE
        narrowing — one per failed future would compound the decrease and
        pin the window at 1 for the rest of the stream (regression)."""
        cap = 4
        server = RemoteSource("S", lambda x: x, latency=0.002,
                              max_concurrent_requests=cap)
        scheduler = Scheduler(max_workers=8, adaptive=True)
        results = list(scheduler.prefetch(each(server.call),
                                          units(range(60))))
        assert results == list(range(60))
        assert scheduler.overload_events >= 1
        assert scheduler.level >= cap - 1, \
            f"the window collapsed to {scheduler.level} (compounded)"

    def test_gives_up_after_max_retries(self):
        def always_reject(x):
            raise RemoteSourceError("S", "overloaded")

        scheduler = Scheduler(max_workers=2, adaptive=True)
        with pytest.raises(RemoteSourceError):
            list(scheduler.prefetch(always_reject, units(range(4))))
        assert scheduler.retries == MAX_RETRIES


class TestChunkGranularPrefetch:
    """A task may hold a chunk of work units: one task — one window slot —
    per chunk."""

    @staticmethod
    def _chunks(total, size):
        return [list(range(start, min(start + size, total)))
                for start in range(0, total, size)]

    def test_preserves_chunk_order_and_contents(self):
        scheduler = Scheduler(max_workers=4)
        results = list(scheduler.prefetch(
            lambda chunk: [x * x for x in chunk], self._chunks(50, 7)))
        assert [x for chunk in results for x in chunk] == \
            [x * x for x in range(50)]

    def test_window_is_counted_in_chunks(self):
        """At most `level` chunk-tasks in flight: the source is consumed
        only one window of CHUNKS ahead, however many elements each holds."""
        pulled = []

        def chunk_source():
            for chunk in self._chunks(60, 5):
                pulled.append(chunk)
                yield chunk

        scheduler = Scheduler(max_workers=3)
        iterator = scheduler.prefetch(lambda chunk: chunk, chunk_source())
        next(iterator)
        # window (3) + the one being yielded + at most one refill
        assert len(pulled) <= 5, f"pulled {len(pulled)} chunks ahead"
        iterator.close()

    def test_rejected_chunks_are_retried_whole_in_order(self):
        attempts = {}

        def flaky(chunk):
            key = chunk[0]
            attempts[key] = attempts.get(key, 0) + 1
            if key == 12 and attempts[key] == 1:
                raise RemoteSourceError("chunk rejected")
            return chunk

        scheduler = Scheduler(max_workers=3, adaptive=True)
        results = list(scheduler.prefetch(flaky, self._chunks(30, 6)))
        assert [x for chunk in results for x in chunk] == list(range(30))
        assert attempts[12] == 2
        assert scheduler.overload_events == 1


class TestOneWorkerSetPerEngine:
    """Every remote loop of an engine's runs hands its tasks to the
    engine's one worker set: ``parallel_max_workers`` plus every declared
    cap wide (5 here: no driver declares one)."""

    @staticmethod
    def _loop(body, source, width=8):
        return ParallelExt("y", B.singleton(body, "list"), source, "list",
                           max_workers=width)

    def test_a_wide_by_wide_nest_stays_within_the_set_and_its_caller(self):
        """Eight outer tasks, each a loop of eight: 72 tasks against a set
        of five, finished by five workers and the caller (caller-runs)."""
        engine = KleisliEngine()
        lock = threading.Lock()
        baseline = threading.active_count()
        runners, peaks = set(), []

        def slow(value):
            with lock:
                runners.add(threading.get_ident())
                peaks.append(threading.active_count())
            time.sleep(0.001)
            return value

        inner = self._loop(B.apply(B.var("slow"),
                                   B.prim("add", B.var("x"), B.var("y"))),
                           B.var("R"))
        outer = ParallelExt("x", inner, B.var("S"), "list", max_workers=8)
        value = engine.execute(outer, {"R": CList(range(8)),
                                       "S": CList(range(0, 800, 100)),
                                       "slow": slow}, optimize=False)
        assert list(iter_collection(value)) == \
            [x + y for x in range(0, 800, 100) for y in range(8)]
        size = engine._workers.size
        assert size == engine.optimizer_config.parallel_max_workers == 5
        assert len(runners) <= size + 1
        assert max(peaks) - baseline <= size
        assert engine._workers.idle == engine._workers.live <= size

    def test_an_abandoned_stream_settles_its_tasks_in_flight(
            self, threads_besides_workers):
        engine = KleisliEngine()
        baseline = threads_besides_workers()
        started, finished = [], []

        def slow(value):
            started.append(value)
            time.sleep(0.005)
            finished.append(value)
            return value

        stream = engine.stream(
            self._loop(B.apply(B.var("slow"), B.var("y")), B.var("R"), width=5),
            {"R": CList(range(100)), "slow": slow}, optimize=False)
        assert next(stream) == 0
        stream.close()
        assert sorted(finished) == sorted(started) and len(started) < 100
        assert threads_besides_workers(engine) == baseline
