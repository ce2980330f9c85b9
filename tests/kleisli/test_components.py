"""Tests for Kleisli components: token streams, scheduler, statistics registry."""

import itertools
import threading
import time

import pytest

from repro.core.values import CSet
from repro.kleisli.scheduler import Scheduler
from repro.kleisli.statistics import SourceStatisticsRegistry
from repro.kleisli.tokens import TokenStream
from repro.net.remote import RemoteSource
from repro.core.errors import RemoteSourceError


class TestTokenStream:
    def test_lazy_iteration_and_materialisation(self):
        produced = []

        def generator():
            for i in range(5):
                produced.append(i)
                yield i

        stream = TokenStream(generator(), kind="set")
        iterator = iter(stream)
        assert next(iterator) == 0
        assert produced == [0]          # nothing beyond the first element was pulled
        assert stream.to_collection() == CSet(range(5))

    def test_first_item_callback_fires_once(self):
        fired = []
        stream = TokenStream(iter([1, 2, 3]), first_item_callback=lambda: fired.append(1))
        list(stream)
        assert fired == [1]

    def test_materialised_count_tracks_progress(self):
        stream = TokenStream(iter(range(10)))
        iterator = iter(stream)
        next(iterator)
        next(iterator)
        assert stream.materialised_count() == 2


class TestPinnedScheduler:
    def test_results_preserve_order(self):
        scheduler = Scheduler(max_workers=4)
        assert list(scheduler.prefetch(lambda x: x * x, range(20))) == \
            [x * x for x in range(20)]

    def test_never_exceeds_worker_cap(self):
        active = []
        peak = []
        lock = threading.Lock()

        def task(x):
            with lock:
                active.append(x)
                peak.append(len(active))
            time.sleep(0.005)
            with lock:
                active.remove(x)
            return x

        scheduler = Scheduler(max_workers=3)
        list(scheduler.prefetch(task, range(12)))
        assert max(peak) <= 3

    def test_single_worker_runs_sequentially(self):
        caller = threading.get_ident()
        scheduler = Scheduler(max_workers=1)
        assert list(scheduler.prefetch(
            lambda x: (x + 1, threading.get_ident()), [1, 2, 3])) == \
            [(2, caller), (3, caller), (4, caller)]
        assert scheduler.tasks_submitted == 3

    def test_rejects_invalid_worker_count(self):
        with pytest.raises(ValueError):
            Scheduler(max_workers=0)


class TestStatisticsRegistry:
    def test_cardinality_lookup_with_default(self):
        registry = SourceStatisticsRegistry()
        registry.register_cardinality("GDB", "locus", 500)
        assert registry.cardinality("GDB", "locus") == 500
        assert registry.cardinality("GDB", "unknown_table") == registry.DEFAULT_CARDINALITY
        assert not registry.has_cardinality("GenBank", "na")

    def test_driver_wide_fallback(self):
        registry = SourceStatisticsRegistry()
        registry.register_cardinality("GenBank", "", 10000)
        assert registry.cardinality("GenBank", "na") == 10000

    def test_remote_flag_from_latency(self):
        registry = SourceStatisticsRegistry()
        assert not registry.is_remote("GDB")
        registry.register_latency("GDB", 0.05)
        assert registry.is_remote("GDB")
        assert registry.latency("GDB") == 0.05


class TestRemoteSource:
    def test_latency_and_logging(self):
        source = RemoteSource("S", lambda x: x * 2, latency=0.01)
        assert source.call(21) == 42
        assert source.request_count == 1
        assert source.log.wall_clock() >= 0.01

    def test_concurrency_cap_enforced(self):
        source = RemoteSource("S", lambda x: time.sleep(0.05) or x, latency=0.0,
                              max_concurrent_requests=1)
        errors = []

        def hammer():
            try:
                source.call(1)
            except RemoteSourceError:
                errors.append(1)

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors  # at least one request was rejected over the cap

    def test_max_concurrency_measurement(self):
        # Two requests meet at a barrier (so both are in flight at once), then
        # a third runs alone; the clock ticks once per reading.
        both = threading.Barrier(2, timeout=10)
        ticks = itertools.count()
        source = RemoteSource("S", lambda wait: wait and both.wait(), latency=0.0,
                              clock=lambda: next(ticks))
        pair = [threading.Thread(target=source.call, args=(True,)) for _ in range(2)]
        for thread in pair:
            thread.start()
        for thread in pair:
            thread.join()
        source.call(False)
        assert source.log.max_concurrency() == 2
        assert len(source.log) == source.request_count == 3
        assert source.log.wall_clock() == 5    # ticks 0 .. 5


class TestObservedLatency:
    """The statistics registry's observed-latency EMA: a driver nobody
    declared remote but whose requests are measured slow becomes remote for
    the parallelism rules; explicit declarations always win."""

    def test_ema_tracks_samples(self):
        from repro.kleisli.statistics import SourceStatisticsRegistry

        registry = SourceStatisticsRegistry()
        assert registry.observed_latency("d") == 0.0
        registry.record_latency_sample("d", 0.1)
        assert registry.observed_latency("d") == pytest.approx(0.1)
        registry.record_latency_sample("d", 0.2)
        # EMA with weight 0.2: 0.1 * 0.8 + 0.2 * 0.2
        assert registry.observed_latency("d") == pytest.approx(0.12)

    def test_slow_undeclared_driver_is_promoted_to_remote(self):
        from repro.kleisli.statistics import SourceStatisticsRegistry

        registry = SourceStatisticsRegistry()
        assert not registry.is_remote("d")
        registry.record_latency_sample("d", 0.2)
        assert registry.is_remote("d")
        assert registry.latency("d") == pytest.approx(0.2)

    def test_fast_undeclared_driver_stays_local(self):
        from repro.kleisli.statistics import SourceStatisticsRegistry

        registry = SourceStatisticsRegistry()
        for _ in range(10):
            registry.record_latency_sample("d", 0.001)
        assert not registry.is_remote("d")

    def test_explicit_declaration_beats_observation(self):
        from repro.kleisli.statistics import SourceStatisticsRegistry

        registry = SourceStatisticsRegistry()
        # Declared local (0.0): stays local no matter what is measured.
        registry.register_latency("pinned_local", 0.0)
        registry.record_latency_sample("pinned_local", 5.0)
        assert not registry.is_remote("pinned_local")
        assert registry.latency("pinned_local") == 0.0
        # Declared remote: stays remote even when dispatch is instant.
        registry.register_latency("declared_remote", 0.08)
        registry.record_latency_sample("declared_remote", 0.0)
        assert registry.is_remote("declared_remote")
        assert registry.latency("declared_remote") == pytest.approx(0.08)

    def test_engine_records_samples_through_the_driver_executor(self):
        import time as _time

        from repro.core.values import CList
        from repro.kleisli.drivers.base import Driver
        from repro.kleisli.engine import KleisliEngine

        class SlowDispatchDriver(Driver):
            def __init__(self):
                super().__init__("slowish")

            def _execute(self, request):
                _time.sleep(0.06)
                return CList([1, 2, 3])

        engine = KleisliEngine()
        engine.register_driver(SlowDispatchDriver())
        assert not engine.statistics_registry.is_remote("slowish")
        engine.driver_executor("slowish", {"table": "t"})
        assert engine.statistics_registry.observed_latency("slowish") >= 0.05
        # Promoted: the parallel rules will now treat it as remote.
        assert engine.statistics_registry.is_remote("slowish")

    def test_lazy_cursor_dispatches_do_not_erode_a_promotion(self):
        """A mixed driver: eager requests at ~200ms promoted it to remote;
        its lazy-cursor requests dispatch in ~0s.  Those sub-floor samples
        carry no round-trip information and must not decay the EMA below
        the remote threshold (regression)."""
        from repro.kleisli.statistics import SourceStatisticsRegistry

        registry = SourceStatisticsRegistry()
        registry.record_latency_sample("mixed", 0.2)
        assert registry.is_remote("mixed")
        for _ in range(50):
            registry.record_latency_sample("mixed", 0.00001)
        assert registry.observed_latency("mixed") == pytest.approx(0.2)
        assert registry.is_remote("mixed"), \
            "cursor dispatches demoted a slow remote driver"
