"""The scheduler's one dispatch: a sliding window, pinned or moving.

* the worker pool is created by the first submission of a ``prefetch`` and
  released by ``close()``/the context-manager protocol;
* ``prefetch``: a bounded window of in-flight tasks refilled as the
  consumer drains replies, preserving order and never running more than one
  window ahead of the consumer — pinned at ``max_workers``, or (``adaptive``)
  narrowed by the server's rejections.

A task is a list of work units; ``units`` / ``each`` wrap plain items and
per-item functions as one-unit tasks.
"""

import threading

import pytest

from repro.core.errors import RemoteSourceError
from repro.kleisli.scheduler import MAX_RETRIES, Scheduler
from repro.net.remote import RemoteSource


def units(items):
    """``items`` as one-unit tasks."""
    return ([item] for item in items)


def each(function):
    """A per-item function as a task function over one-unit tasks."""
    return lambda task: function(task[0])


class TestPoolLifetime:
    def test_the_first_submission_creates_the_pool_and_close_releases_it(self):
        scheduler = Scheduler(max_workers=4)
        try:
            iterator = scheduler.prefetch(lambda x: x + 1, range(8))
            assert scheduler._pool is None, "a pool before any submission"
            assert next(iterator) == 1
            pool = scheduler._pool
            assert pool is not None
            assert list(iterator) == list(range(2, 9))
            assert scheduler._pool is pool, "prefetch rebuilt the executor"
        finally:
            scheduler.close()
        assert scheduler._pool is None

    def test_close_joins_worker_threads(self):
        baseline = threading.active_count()
        scheduler = Scheduler(max_workers=4)
        list(scheduler.prefetch(lambda x: x, range(8)))
        assert threading.active_count() > baseline
        scheduler.close()
        assert threading.active_count() == baseline

    def test_context_manager_closes(self):
        baseline = threading.active_count()
        with Scheduler(max_workers=3) as scheduler:
            list(scheduler.prefetch(lambda x: x, range(6)))
        assert threading.active_count() == baseline

    def test_adaptive_keeps_one_pool_across_windows(self):
        rejected = []

        def reject_five_once(x):
            if x == 5 and not rejected:
                rejected.append(x)
                raise RemoteSourceError("S", "overloaded")
            return x

        scheduler = Scheduler(max_workers=4, adaptive=True)
        try:
            iterator = scheduler.prefetch(each(reject_five_once),
                                          units(range(20)))
            next(iterator)
            pool = scheduler._pool
            assert list(iterator) == list(range(1, 20))
            assert len(scheduler.level_history) >= 1, "the window never moved"
            assert scheduler._pool is pool
        finally:
            scheduler.close()

    def test_close_is_idempotent_and_prefetch_recovers(self):
        scheduler = Scheduler(max_workers=2)
        list(scheduler.prefetch(lambda x: x, range(4)))
        scheduler.close()
        scheduler.close()
        # A closed scheduler creates a pool again on its next submission.
        assert list(scheduler.prefetch(lambda x: x * 2, range(3))) == [0, 2, 4]
        scheduler.close()


class TestPinnedPrefetch:
    def test_preserves_order(self):
        with Scheduler(max_workers=4) as scheduler:
            results = list(scheduler.prefetch(lambda x: x * x, range(20)))
        assert results == [x * x for x in range(20)]

    def test_never_exceeds_the_window_in_flight(self):
        server = RemoteSource("S", lambda x: x, latency=0.002,
                              max_concurrent_requests=100)
        with Scheduler(max_workers=3) as scheduler:
            list(scheduler.prefetch(server.call, range(30)))
        assert server.log.max_concurrency() <= 3

    def test_consumes_the_source_lazily(self):
        pulled = []

        def source():
            for i in range(100):
                pulled.append(i)
                yield i

        with Scheduler(max_workers=3) as scheduler:
            iterator = scheduler.prefetch(lambda x: x, source())
            assert next(iterator) == 0
            # At most one window ahead of the consumer (plus the one yielded).
            assert len(pulled) <= 4
            iterator.close()
        assert len(pulled) <= 4, "prefetch kept pulling after close()"

    def test_early_close_leaves_no_threads(self):
        baseline = threading.active_count()
        scheduler = Scheduler(max_workers=4)
        iterator = scheduler.prefetch(lambda x: x, range(50))
        next(iterator)
        iterator.close()
        scheduler.close()
        assert threading.active_count() == baseline

    def test_window_of_one_is_sequential(self):
        with Scheduler(max_workers=1) as scheduler:
            assert list(scheduler.prefetch(lambda x: x + 1, range(5))) == [1, 2, 3, 4, 5]
            assert scheduler._pool is None, "window 1 should not build a pool"

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

        with Scheduler(max_workers=level) as scheduler:
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

        with Scheduler(max_workers=3, adaptive=adaptive) as scheduler:
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

        with Scheduler(max_workers=2) as scheduler:
            iterator = scheduler.prefetch(reject_the_third, range(6))
            assert [next(iterator), next(iterator)] == [0, 1]
            with pytest.raises(RemoteSourceError):
                next(iterator)
        assert calls.count(2) == 1
        assert scheduler.retries == 0
        assert scheduler.overload_events == 0


class TestAdaptivePrefetch:
    def test_preserves_order_and_completes(self):
        with Scheduler(max_workers=4, adaptive=True) as scheduler:
            results = list(scheduler.prefetch(each(lambda x: x * 3),
                                              units(range(25))))
        assert results == [x * 3 for x in range(25)]

    def test_backs_off_on_overload_and_retries(self):
        server = RemoteSource("S", lambda x: x, latency=0.002,
                              max_concurrent_requests=2)
        with Scheduler(max_workers=8, adaptive=True) as scheduler:
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
        with Scheduler(max_workers=8, adaptive=True) as scheduler:
            results = list(scheduler.prefetch(each(server.call),
                                              units(range(60))))
        assert results == list(range(60))
        assert scheduler.overload_events >= 1
        assert scheduler.level >= cap - 1, \
            f"the window collapsed to {scheduler.level} (compounded)"

    def test_gives_up_after_max_retries(self):
        def always_reject(x):
            raise RemoteSourceError("S", "overloaded")

        with Scheduler(max_workers=2, adaptive=True) as scheduler:
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
        with Scheduler(max_workers=4) as scheduler:
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

        with Scheduler(max_workers=3) as scheduler:
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
        try:
            results = list(scheduler.prefetch(flaky, self._chunks(30, 6)))
        finally:
            scheduler.close()
        assert [x for chunk in results for x in chunk] == list(range(30))
        assert attempts[12] == 2
        assert scheduler.overload_events == 1
