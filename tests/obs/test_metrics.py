"""MetricsRegistry semantics: counting, labels, get-or-create."""

import itertools
import threading

import pytest

from repro.errors import ConfigError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)


class TestCounter:
    def test_counts_and_totals_per_label(self):
        counter = Counter("tasks_total", labelnames=("op",))
        counter.inc(op="acked")
        counter.inc(2, op="acked")
        counter.inc(op="nacked")
        assert counter.value(op="acked") == 3
        assert counter.value(op="nacked") == 1
        assert counter.total() == 4

    def test_rejects_negative_increment(self):
        counter = Counter("n")
        with pytest.raises(ConfigError):
            counter.inc(-1)

    def test_rejects_wrong_labels(self):
        counter = Counter("n", labelnames=("op",))
        with pytest.raises(ConfigError):
            counter.inc(worker="w0")

    def test_thread_safety_under_contention(self):
        counter = Counter("n")

        def spin():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.total() == 4000


class TestGauge:
    def test_moves_both_ways_and_sets(self):
        gauge = Gauge("depth")
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value() == 3
        gauge.set(10)
        assert gauge.value() == 10


class TestHistogram:
    def test_cumulative_buckets_sum_and_count(self):
        hist = Histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        assert hist.count() == 4
        assert hist.sum() == pytest.approx(6.05)
        # Per-bucket tallies (<= 0.1, <= 1.0, +Inf overflow) accumulate
        # to the cumulative le="0.1" / le="1" / le="+Inf" counts.
        [(labels, counts, _)] = hist.samples()
        assert labels == ()
        assert list(itertools.accumulate(counts)) == [1, 3, 4]

    def test_labelled_samples_are_independent(self):
        hist = Histogram("lat", labelnames=("route",))
        hist.observe(0.2, route="/a")
        hist.observe(0.3, route="/b")
        assert hist.count(route="/a") == 1
        assert hist.count(route="/b") == 1

    def test_bucket_override_sorts_and_normalizes(self):
        hist = Histogram("rate", buckets=(1.0, 0.1, 0.5))
        assert hist.bounds == (0.1, 0.5, 1.0)

    def test_empty_buckets_rejected(self):
        with pytest.raises(ConfigError):
            Histogram("rate", buckets=())


class TestRegistry:
    def test_get_or_create_returns_the_same_metric(self):
        registry = MetricsRegistry()
        first = registry.counter("puts_total")
        second = registry.counter("puts_total")
        assert first is second

    def test_type_conflict_is_a_config_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigError):
            registry.gauge("x")

    def test_histogram_accepts_per_metric_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "contention_failure_rate", buckets=(0.01, 0.1, 1.0)
        )
        assert hist.bounds == (0.01, 0.1, 1.0)
        # Re-registering with the same layout gets the same metric,
        # even when spelled in a different order.
        again = registry.histogram(
            "contention_failure_rate", buckets=(1.0, 0.01, 0.1)
        )
        assert again is hist

    def test_histogram_bucket_conflict_is_a_config_error(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(0.1, 1.0))
        with pytest.raises(ConfigError):
            registry.histogram("lat", buckets=(0.2, 2.0))

    def test_default_bucket_reregistration_still_get_or_creates(self):
        registry = MetricsRegistry()
        first = registry.histogram("lat")
        assert registry.histogram("lat") is first

    def test_process_default_is_swappable(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous
