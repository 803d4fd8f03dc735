"""MetricsRegistry: counters, histograms, grouping, OpenMetrics export."""

import pytest

from repro.obs import to_openmetrics
from repro.obs.metrics import MetricsRegistry

from .openmetrics import parse_openmetrics


class TestCounters:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        registry.inc("op.pairing", component="alice")
        registry.inc("op.pairing", 4, component="alice")
        registry.inc("op.pairing", component="bob")
        assert registry.counter_value("op.pairing", component="alice") == 5
        assert registry.counter_value("op.pairing", component="bob") == 1
        assert registry.counter_value("op.pairing", component="carol") == 0
        assert registry.counter_total("op.pairing") == 6

    def test_counters_by_label(self):
        registry = MetricsRegistry()
        registry.inc("net.bytes", 100, src="pub", dst="ds")
        registry.inc("net.bytes", 50, src="ds", dst="alice")
        registry.inc("net.bytes", 25, src="ds", dst="bob")
        assert registry.counters_by_label("net.bytes", "src") == {"pub": 100, "ds": 75}
        assert registry.counters_by_label("net.bytes", "dst") == {
            "ds": 100, "alice": 50, "bob": 25,
        }

    def test_counter_names(self):
        registry = MetricsRegistry()
        registry.inc("op.b", component="x")
        registry.inc("op.a", component="x")
        registry.inc("op.a", component="y")
        assert registry.counter_names() == ["op.a", "op.b"]


class TestHistograms:
    def test_observe_and_stats(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.observe("net.inbox_depth", value, host="ds")
        histogram = registry.histogram("net.inbox_depth", host="ds")
        assert histogram.count == 4
        assert histogram.total == 10.0
        assert histogram.mean == pytest.approx(2.5)
        assert histogram.maximum == 4.0

    def test_percentile_nearest_rank(self):
        registry = MetricsRegistry()
        for value in range(100):
            registry.observe("h", float(value))
        histogram = registry.histogram("h")
        # nearest rank: index = round(fraction * (n-1))
        assert histogram.percentile(0.95) == 94.0
        assert histogram.percentile(0.99) == 98.0
        assert histogram.percentile(0.0) == 0.0
        assert histogram.percentile(1.0) == 99.0

    def test_missing_histogram(self):
        assert MetricsRegistry().histogram("nope") is None

    def test_percentile_of_empty_histogram_is_zero(self):
        registry = MetricsRegistry()
        registry.observe("h", 1.0)
        histogram = registry.histogram("h")
        histogram.values.clear()
        for fraction in (0.0, 0.5, 0.95, 1.0):
            assert histogram.percentile(fraction) == 0.0
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.maximum == 0.0

    def test_percentile_of_single_sample(self):
        registry = MetricsRegistry()
        registry.observe("h", 42.0)
        histogram = registry.histogram("h")
        for fraction in (0.0, 0.5, 0.95, 1.0):
            assert histogram.percentile(fraction) == 42.0

    def test_percentile_all_equal_samples(self):
        registry = MetricsRegistry()
        for _ in range(7):
            registry.observe("h", 3.0)
        histogram = registry.histogram("h")
        for fraction in (0.0, 0.5, 0.95, 1.0):
            assert histogram.percentile(fraction) == 3.0

    def test_percentile_clamps_out_of_range_fractions(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0):
            registry.observe("h", value)
        histogram = registry.histogram("h")
        assert histogram.percentile(-0.5) == 1.0
        assert histogram.percentile(1.5) == 3.0


class TestOnePercentileRule:
    """``nearest_rank`` is the only percentile in the repo; Histogram
    answers through it."""

    # n -> (p50, p95, p99) of the samples 0.0 .. n-1: index round(f * (n-1)),
    # ties to even as Python rounds
    PINNED = {
        1: (0.0, 0.0, 0.0),
        2: (0.0, 1.0, 1.0),  # round(0.5) == 0
        20: (10.0, 18.0, 19.0),  # round(9.5) == 10, round(18.05) == 18
        101: (50.0, 95.0, 99.0),
    }

    @pytest.mark.parametrize("n", sorted(PINNED))
    def test_rule_is_pinned_and_shared(self, n):
        from repro.obs.metrics import nearest_rank

        values = [float(v) for v in range(n)]
        p50, p95, p99 = self.PINNED[n]
        assert tuple(nearest_rank(values, f) for f in (0.5, 0.95, 0.99)) == (p50, p95, p99)
        registry = MetricsRegistry()
        for value in reversed(values):  # the histogram sorts for itself
            registry.observe("h", value)
        histogram = registry.histogram("h")
        assert tuple(histogram.percentile(f) for f in (0.5, 0.95, 0.99)) == (p50, p95, p99)
        assert histogram.percentile(1.0) == float(n - 1)


class TestSeriesSnapshots:
    def test_counter_series_filter(self):
        registry = MetricsRegistry()
        registry.inc("op.pairing", 3, component="ds")
        registry.inc("op.pairing", 9, component="rs")
        mine = registry.counter_series(where=lambda _n, labels: labels.get("component") == "ds")
        assert mine == [{"name": "op.pairing", "labels": {"component": "ds"}, "value": 3}]

    def test_histogram_series_caps_values_but_keeps_totals(self):
        registry = MetricsRegistry()
        for value in range(10):
            registry.observe("h", float(value), host="ds")
        (series,) = registry.histogram_series(max_values=3)
        assert series["values"] == [7.0, 8.0, 9.0]  # most recent survive
        assert series["count"] == 10
        assert series["sum"] == 45.0


class TestLifecycleAndExport:
    def test_empty(self):
        registry = MetricsRegistry()
        assert registry.empty
        registry.inc("c")
        registry.observe("h", 1.0)
        assert not registry.empty

    def test_openmetrics_export(self):
        registry = MetricsRegistry()
        registry.inc("op.pairing", 3, component="alice")
        registry.observe("op.pairing.wall_s", 0.25, component="alice")
        parsed = parse_openmetrics(to_openmetrics(registry))
        assert parsed.value("p3s_op_pairing_total", component="alice") == 3
        assert parsed.value("p3s_op_pairing_wall_s_count", component="alice") == 1
        assert parsed.value("p3s_op_pairing_wall_s_sum", component="alice") == 0.25
