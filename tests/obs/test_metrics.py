"""The metrics registry, one behaviour at a time.

Books, counters/histograms (thread-safe, typed), the fixed-exponential
bucket ladder builder, Prometheus-style text exposition, and the sampled
row-width estimator whose zero-sample behaviour reproduces the
``NOMINAL_ROW_BYTES`` constant bit-for-bit (the PR 9 budget gate's
differential pin).
"""

import threading

import pytest

from repro.kleisli.governance import NOMINAL_ROW_BYTES
from repro.obs.metrics import (
    Books,
    Counter,
    Histogram,
    MetricsRegistry,
    RowWidthEstimator,
    exponential_buckets,
)


class TestBucketLadder:
    def test_ladder_is_start_times_powers_of_growth(self):
        assert exponential_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            exponential_buckets(0.0, 2.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 2.0, 0)


class TestCounter:
    def test_counter_accumulates_and_rejects_negative(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_counter_is_thread_safe(self):
        counter = Counter("c")

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


class TestHistogram:
    def test_observations_land_in_le_buckets(self):
        h = Histogram("h", (1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            h.observe(value)
        snap = h.snapshot()
        # le semantics: 0.5 and 1.0 <= 1.0; 1.5 <= 2.0; 3.0 <= 4.0; 100 overflows
        assert snap["counts"] == [2, 1, 1, 1]
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(106.0)

    def test_merge_requires_identical_bounds(self):
        a = Histogram("h", (1.0, 2.0))
        b = Histogram("h", (1.0, 2.0))
        c = Histogram("h", (1.0, 3.0))
        a.observe(0.5)
        b.observe(5.0)
        a.merge(b)
        assert a.count == 2
        with pytest.raises(ValueError):
            a.merge(c)


class TestBooks:
    def test_named_counts_start_at_zero_and_grow(self):
        books = Books(("a", "b"))
        assert books.snapshot() == {"a": 0, "b": 0}
        books.count("a")
        books.count("c", 3)
        books.merge({"a": 2, "b": 0, "d": 0})
        assert books.snapshot() == {"a": 3, "b": 0, "c": 3}
        assert books.a == 3 and books.c == 3
        with pytest.raises(AttributeError):
            books.d

    def test_snapshot_is_a_copy(self):
        books = Books(("a",))
        snapshot = books.snapshot()
        books.count("a")
        assert snapshot == {"a": 0}

    def test_counting_is_thread_safe(self):
        books = Books()

        def work():
            for _ in range(1000):
                books.count("n")
                books.merge({"m": 2})

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert books.snapshot() == {"n": 8000, "m": 16000}


class TestRegistry:
    def test_get_or_create_is_idempotent_and_kind_checked(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests", "help")
        assert registry.counter("requests") is counter
        with pytest.raises(ValueError):
            registry.histogram("requests", (1.0,))

    def test_histogram_bounds_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("lat", (1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("lat", (1.0, 3.0))

    def test_render_is_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", "Requests").inc(3)
        registry.histogram("lat_seconds", (0.1, 1.0), "Latency").observe(0.05)
        text = registry.render()
        assert "# TYPE reqs_total counter" in text
        assert "reqs_total 3" in text
        # cumulative le buckets, +Inf, _sum/_count
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text
        assert text.endswith("\n")

    def test_counts_kept_elsewhere_render_in_name_order(self):
        registry = MetricsRegistry()
        registry.counter("b_total", "Kept here").inc(2)
        text = registry.render([("c_total", "Read", 5), ("a_total", "", 1)])
        assert text.splitlines() == [
            "# TYPE a_total counter", "a_total 1",
            "# HELP b_total Kept here", "# TYPE b_total counter", "b_total 2",
            "# HELP c_total Read", "# TYPE c_total counter", "c_total 5"]
        assert registry.names() == ["b_total"]

    def test_snapshot_lists_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.histogram("c", (1.0,))
        assert registry.names() == ["a", "c"]


class TestRowWidthEstimator:
    def test_zero_samples_reproduce_the_constant_bit_for_bit(self):
        estimator = RowWidthEstimator(NOMINAL_ROW_BYTES)
        # Identity, not approximate equality: the PR 9 spill gate multiplies
        # by this value, so the zero-sample engine must plan bit-identically.
        assert estimator.row_bytes() == NOMINAL_ROW_BYTES

    def test_samples_move_the_width(self):
        estimator = RowWidthEstimator(NOMINAL_ROW_BYTES)
        estimator.observe(nbytes=1000, rows=10)
        assert estimator.row_bytes() == pytest.approx(100.0)
        estimator.observe(nbytes=1000, rows=10)
        assert estimator.row_bytes() == pytest.approx(100.0)

    def test_degenerate_samples_are_ignored(self):
        estimator = RowWidthEstimator(NOMINAL_ROW_BYTES)
        estimator.observe(nbytes=100, rows=0)
        estimator.observe(nbytes=-5, rows=3)
        assert estimator.row_bytes() == NOMINAL_ROW_BYTES

    def test_width_never_collapses_below_one_byte(self):
        estimator = RowWidthEstimator(NOMINAL_ROW_BYTES)
        estimator.observe(nbytes=1, rows=1000)
        assert estimator.row_bytes() == 1.0
