"""The scheduler's one dispatch: a sliding window, pinned or moving.

* the worker pool is created by the first submission of a ``prefetch`` and
  released by ``close()``/the context-manager protocol;
* ``prefetch``: a bounded window of in-flight tasks refilled as the
  consumer drains replies, preserving order and never running more than one
  window ahead of the consumer — pinned at ``max_workers``, or (``adaptive``)
  moved by the window controller.

A task is a list of work units; ``units`` / ``each`` wrap plain items and
per-item functions as one-unit tasks.
"""

import threading

import pytest

from repro.core.errors import RemoteSourceError
from repro.kleisli.scheduler import Scheduler
from repro.net.remote import RemoteSource


def units(items):
    """``items`` as one-unit tasks."""
    return ([item] for item in items)


def each(function):
    """A per-item function as a task function over one-unit tasks."""
    return lambda task: function(task[0])


class ThreadLocalClock:
    """A counter-based ``perf_counter`` stand-in for deterministic timing
    tests: each thread has its own timeline, advanced only by its *own*
    :meth:`advance` calls.  A worker's measured latency is then exactly the
    simulated service time — independent of scheduler jitter, GIL handoffs,
    and wall time — so window-controller assertions stop being flaky.
    (``Scheduler(clock=...)`` injects it.)"""

    def __init__(self):
        self._local = threading.local()

    def __call__(self):
        return getattr(self._local, "now", 0.0)

    def advance(self, seconds):
        self._local.now = self() + seconds


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
        scheduler = Scheduler(max_workers=4, adaptive=True, initial_workers=2)
        try:
            iterator = scheduler.prefetch(each(lambda x: x), units(range(20)))
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

    def test_reads_no_clock_and_keeps_no_samples(self):
        """A pinned window never consults the time source: one that raises
        changes nothing, and the level never moves."""
        def broken_clock():
            raise AssertionError("a pinned scheduler read the clock")

        with Scheduler(max_workers=3, clock=broken_clock) as scheduler:
            assert list(scheduler.prefetch(lambda x: x * 2, range(12))) == \
                [x * 2 for x in range(12)]
        assert scheduler.level == 3
        assert scheduler.level_history == []

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
        with Scheduler(max_workers=4, adaptive=True,
                       initial_workers=2) as scheduler:
            results = list(scheduler.prefetch(each(lambda x: x * 3),
                                              units(range(25))))
        assert results == [x * 3 for x in range(25)]

    def test_backs_off_on_overload_and_retries(self):
        server = RemoteSource("S", lambda x: x, latency=0.002,
                              max_concurrent_requests=2)
        with Scheduler(max_workers=8, adaptive=True,
                       initial_workers=8) as scheduler:
            results = list(scheduler.prefetch(each(server.call),
                                              units(range(30))))
        assert results == list(range(30))
        assert scheduler.overload_events >= 1
        assert scheduler.level <= 2

    def test_one_burst_is_one_rejection_event(self):
        """All failures from a window submitted at one level count as ONE
        rejection — per-future halving would compound the decrease and pin
        the rejection ceiling at 1 for the rest of the stream (regression).
        The scheduler must recover to the server's actual capacity."""
        cap = 4
        server = RemoteSource("S", lambda x: x, latency=0.002,
                              max_concurrent_requests=cap)
        with Scheduler(max_workers=8, adaptive=True,
                       initial_workers=8) as scheduler:
            results = list(scheduler.prefetch(each(server.call),
                                              units(range(60))))
        assert results == list(range(60))
        assert scheduler.overload_events >= 1
        assert scheduler._controller.rejection_ceiling >= cap - 1, \
            f"ceiling collapsed to {scheduler._controller.rejection_ceiling} (compounded)"
        assert scheduler.level >= cap - 1, \
            f"level never recovered: {scheduler.level}"

    def test_ramps_up_on_success(self):
        with Scheduler(max_workers=6, adaptive=True,
                       initial_workers=1) as scheduler:
            list(scheduler.prefetch(each(lambda x: x), units(range(40))))
            assert scheduler.level > 1, "level never ramped despite successes"

    def test_gives_up_after_max_retries(self):
        def always_reject(x):
            raise RemoteSourceError("S", "overloaded")

        with Scheduler(max_workers=2, adaptive=True,
                       max_retries=1) as scheduler:
            with pytest.raises(RemoteSourceError):
                list(scheduler.prefetch(always_reject, units(range(4))))
        assert scheduler.retries == 1


class TestLatencyAwareWindow:
    """The window controller: throughput AND per-item latency drive a
    moving prefetch window."""

    def test_throughput_policy_thresholds(self):
        from repro.kleisli.scheduler import _WindowController

        controller = _WindowController(8, 1, 1.5)
        controller.on_sample(1, 100.0)      # baseline established → raise
        assert controller.level == 2
        controller.on_sample(2, 150.0)      # genuine improvement → raise
        assert controller.level == 3
        controller.on_sample(3, 50.0)       # collapse → back off one
        assert controller.level == 2
        # The best decays on a collapse (150 → 100): sustained low
        # throughput keeps walking the level down …
        controller.on_sample(2, 50.0)       # 50 < 100/1.5 → still degraded
        assert controller.level == 1
        # … but a recovery soon registers as improvement against the
        # decayed best (66.7) instead of being dwarfed by the stale 150.
        controller.on_sample(1, 80.0)
        assert controller.level == 2
        # Plateau holds, probing up periodically.
        for _ in range(controller.PROBE_INTERVAL - 1):
            controller.on_sample(2, 80.0)
            assert controller.level == 2
        controller.on_sample(2, 80.0)       # plateau probe
        assert controller.level == 3

    def test_sustained_degradation_keeps_backing_off(self):
        """A server that permanently degrades (no rejections) must pull the
        level down and keep it there — decaying the remembered best must
        not read sustained degradation as a fresh healthy baseline and
        ramp back up (regression)."""
        from repro.kleisli.scheduler import _WindowController

        controller = _WindowController(8, 3, 1.5)
        controller.on_sample(3, 100.0)      # baseline → 4
        controller.on_sample(4, 160.0)      # improvement → 5
        for _ in range(8):
            controller.on_sample(controller.level, 40.0)
        assert controller.level <= 3, \
            f"level ramped to {controller.level} under sustained degradation"

    def test_latency_degradation_shrinks_without_throughput_collapse(self):
        from repro.kleisli.scheduler import _WindowController

        controller = _WindowController(8, 2, 1.5)
        controller.on_sample(2, 100.0, latency=0.010)   # baseline → 3
        assert controller.level == 3
        # Throughput flat, but every request now takes 2x as long: the
        # extra requests are queueing at the server — shrink.
        controller.on_sample(3, 101.0, latency=0.022)
        assert controller.level == 2

    def test_sub_millisecond_samples_only_ramp(self):
        """Timer noise on instant functions must never shrink the window;
        with nothing to overlap, decreases come from rejections only."""
        from repro.kleisli.scheduler import _WindowController

        controller = _WindowController(6, 1, 1.5)
        controller.on_sample(1, 1e6, latency=1e-5)
        for throughput in [1e6, 1e3, 5e5, 2e2, 1e6, 1e4, 1e6, 1e5]:
            controller.on_sample(controller.level, throughput, latency=1e-5)
        assert controller.level == 6

    def test_noise_era_samples_do_not_poison_the_baseline(self):
        """Sub-millisecond windows (e.g. items served from a local cache)
        must not set best_throughput: when later items reach the real
        ~2ms server, its healthy windows would read as a collapse against
        the ~1e6/s noise baseline and serialize the stream (regression)."""
        from repro.kleisli.scheduler import _WindowController

        controller = _WindowController(8, 2, 1.5)
        for _ in range(6):                      # cache era: ~10us per item
            controller.on_sample(controller.level, 1e6, latency=1e-5)
        assert controller.level == 8
        assert controller.best_throughput is None, \
            "noise-era sample recorded as the throughput baseline"
        level_before = controller.level
        for _ in range(6):                      # real server: 2ms per item
            controller.on_sample(controller.level, 2500.0, latency=0.002)
        assert controller.level >= level_before - 1, \
            f"healthy real-latency windows collapsed the level to {controller.level}"

    def test_queueing_server_caps_the_prefetch_window(self):
        """End-to-end: a server whose per-request latency grows linearly
        with concurrency (throughput flat) must keep the window far below
        the pool maximum — the signal per-item AIMD never saw.  The fake
        clock makes the latency-vs-level relation exact instead of
        sleep-jitter-approximate."""
        clock = ThreadLocalClock()
        scheduler = Scheduler(max_workers=12, adaptive=True, initial_workers=1,
                              degradation_threshold=1.3, clock=clock)

        def queueing(x):
            clock.advance(0.004 * scheduler.level)
            return x

        with scheduler:
            results = list(scheduler.prefetch(each(queueing),
                                              units(range(50))))
        assert results == list(range(50))
        assert max(scheduler.level_history, default=1) < 12, \
            f"window ramped to {max(scheduler.level_history)} despite queueing"
        assert scheduler.level <= 6

class TestChunkGranularPrefetch:
    """A task may hold a chunk of work units: one task — one window slot —
    per chunk, and a moving window samples per-chunk latency (a chunk
    amortizes enough work to clear the noise floor)."""

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

    def test_adaptive_controller_samples_per_chunk_latency(self):
        """Chunks slow enough to clear the controller's noise floor feed it
        real samples: the level moves off its initial value (ramp), which
        per-item sub-millisecond latencies would not do reliably."""
        clock = ThreadLocalClock()
        scheduler = Scheduler(max_workers=4, adaptive=True, initial_workers=1,
                              clock=clock)
        try:
            def slow_chunk(chunk):
                clock.advance(0.003)
                return chunk
            results = list(scheduler.prefetch(slow_chunk,
                                              self._chunks(120, 6)))
            assert [x for chunk in results for x in chunk] == list(range(120))
            assert scheduler.level > 1, scheduler.level_history
        finally:
            scheduler.close()

    def test_rejected_chunks_are_retried_whole_in_order(self):
        attempts = {}

        def flaky(chunk):
            key = chunk[0]
            attempts[key] = attempts.get(key, 0) + 1
            if key == 12 and attempts[key] == 1:
                raise RemoteSourceError("chunk rejected")
            return chunk

        scheduler = Scheduler(max_workers=3, adaptive=True, initial_workers=3)
        try:
            results = list(scheduler.prefetch(flaky, self._chunks(30, 6)))
        finally:
            scheduler.close()
        assert [x for chunk in results for x in chunk] == list(range(30))
        assert attempts[12] == 2
        assert scheduler.overload_events == 1
