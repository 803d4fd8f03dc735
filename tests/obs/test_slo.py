"""SLO engine: burn rates, error budgets, multi-window alerting, ingest."""

import pytest

from repro.obs import to_openmetrics
from repro.obs.slo import (
    CHAOS_WINDOWS,
    SLO_GAUGE_METRICS,
    BurnRateWindow,
    SloEngine,
    SloSpec,
    chaos_slos,
    default_slos,
)

from .openmetrics import Exposition, parse_openmetrics


def _latency_engine(threshold_s: float = 1.0) -> SloEngine:
    return SloEngine(
        (
            SloSpec(
                name="delivery_latency",
                description="latency",
                objective=0.95,
                windows=CHAOS_WINDOWS,
                threshold_s=threshold_s,
            ),
        )
    )


class TestRecording:
    def test_value_vs_threshold_derives_goodness(self):
        engine = _latency_engine(threshold_s=1.0)
        assert engine.record("delivery_latency", at=0.0, value=0.5) is True
        assert engine.record("delivery_latency", at=0.1, value=1.5) is False
        assert engine.counts("delivery_latency") == (1, 1)

    def test_explicit_good_wins(self):
        engine = _latency_engine()
        assert engine.record("delivery_latency", good=False, at=0.0, value=0.1) is False

    def test_record_without_good_or_value_raises(self):
        engine = SloEngine(chaos_slos(1.0))
        with pytest.raises(ValueError):
            engine.record("delivery_integrity", at=0.0)

    def test_out_of_order_events_are_resorted(self):
        engine = _latency_engine()
        engine.record("delivery_latency", at=2.0, value=0.1)
        engine.record("delivery_latency", at=0.1, value=9.0)
        # the bad event at 0.1 must land in the (0, 0.25] window
        assert engine.burn_rate("delivery_latency", 0.25, 0.25) > 0


class TestBurnRates:
    def test_empty_window_burns_nothing(self):
        engine = _latency_engine()
        assert engine.burn_rate("delivery_latency", 1.0, 100.0) == 0.0

    def test_all_bad_window_burns_at_inverse_budget(self):
        engine = _latency_engine()
        engine.record("delivery_latency", at=0.1, value=9.0)
        # bad_fraction 1.0 over budget 0.05 → burn 20
        assert engine.burn_rate("delivery_latency", 1.0, 1.0) == pytest.approx(20.0)

    def test_burn_across_aggregates_label_groups(self):
        engine = SloEngine(default_slos())
        engine.record("publish_ack", good=False, at=0.0, service="ds0")
        engine.record("publish_ack", good=True, at=0.0, service="ds1")
        # the unlabeled group is empty, but the aggregate sees both
        assert engine.burn_rate("publish_ack", 300, 0.0) == 0.0
        assert engine.burn_rate_across("publish_ack", 300, 0.0) == pytest.approx(10.0)

    def test_error_budget_lifetime(self):
        engine = _latency_engine()
        assert engine.error_budget_remaining("delivery_latency") == 1.0
        for index in range(19):
            engine.record("delivery_latency", at=index * 0.01, value=0.1)
        engine.record("delivery_latency", at=0.2, value=9.0)
        # 1 bad of 20 = exactly the 5% budget → 0 left
        assert engine.error_budget_remaining("delivery_latency") == pytest.approx(0.0)
        engine.record("delivery_latency", at=0.3, value=9.0)
        assert engine.error_budget_remaining("delivery_latency") < 0


class TestAlerting:
    def test_fire_and_clear_cycle(self):
        engine = _latency_engine()
        engine.record("delivery_latency", at=0.1, value=9.0)
        fired = engine.evaluate(0.2)
        assert {alert.window for alert in fired} == {"0.25s/1s", "0.75s/2.5s"}
        assert all(alert.active for alert in engine.alerts)
        # past its 0.25s short window the page clears; the ticket's
        # longer short window still holds the event
        engine.evaluate(0.8)
        states = {alert.window: alert.active for alert in engine.alerts}
        assert states["0.25s/1s"] is False
        assert states["0.75s/2.5s"] is True
        engine.evaluate(4.0)
        assert engine.active_alerts() == []
        assert all(alert.cleared_at is not None for alert in engine.alerts)

    def test_both_windows_must_burn(self):
        # a bad event older than the short window must not fire
        engine = SloEngine(
            (
                SloSpec(
                    name="delivery_latency",
                    description="latency",
                    objective=0.95,
                    windows=(CHAOS_WINDOWS[0],),  # the 0.25s/1s page only
                    threshold_s=1.0,
                ),
            )
        )
        engine.record("delivery_latency", at=0.0, value=9.0)
        engine.record("delivery_latency", at=0.5, value=0.1)
        assert engine.evaluate(0.5) == []  # short window holds only the good event
        # the long window alone keeps burning, yet no alert: both must
        assert engine.burn_rate("delivery_latency", 1.0, 0.5) >= 1.0

    def test_no_traffic_never_pages(self):
        engine = _latency_engine()
        assert engine.evaluate(10.0) == []
        assert engine.alerts == []

    def test_alert_groups_by_labels(self):
        engine = SloEngine(default_slos())
        engine.record("publish_ack", good=False, at=0.0, service="ds0")
        engine.record("publish_ack", good=True, at=0.0, service="ds1")
        fired = engine.evaluate(0.0)
        assert fired
        assert all(dict(alert.labels)["service"] == "ds0" for alert in fired)

    def test_zero_budget_objective(self):
        engine = SloEngine(
            (
                SloSpec(
                    name="strict",
                    description="no failures ever",
                    objective=1.0,
                    windows=(BurnRateWindow(0.25, 1.0, 1.0),),
                ),
            )
        )
        engine.record("strict", good=True, at=0.0)
        assert engine.evaluate(0.1) == []
        engine.record("strict", good=False, at=0.2)
        assert engine.evaluate(0.3)


class _FakeAggregator:
    """The TelemetryAggregator surface SloEngine.ingest consumes."""

    def __init__(self):
        self.latencies: dict[int, float] = {}
        self.counters: dict[str, dict[str, float]] = {}

    def publish_deliver_trace_latencies(self):
        return dict(self.latencies)

    def services(self):
        return sorted(self.counters)

    def service_counter_total(self, service, name):
        return self.counters.get(service, {}).get(name, 0.0)


class TestIngest:
    def test_latency_traces_consumed_once(self):
        engine = SloEngine(default_slos(latency_threshold_s=1.0))
        agg = _FakeAggregator()
        agg.latencies = {11: 0.2, 12: 3.0}
        assert engine.ingest(agg, now=1.0) == 2
        assert engine.counts("delivery_latency") == (1, 1)
        # re-polling the same traces records nothing new
        assert engine.ingest(agg, now=2.0) == 0
        agg.latencies[13] = 0.1
        assert engine.ingest(agg, now=3.0) == 1

    def test_publish_ack_grace_interval(self):
        engine = SloEngine(default_slos())
        agg = _FakeAggregator()
        # first poll catches an ack mid-flight: delivered 2, acked 1
        agg.counters["ds"] = {"ds.delivered": 2, "ds.acked": 1}
        engine.ingest(agg, now=0.0)
        assert engine.counts("publish_ack") == (1, 0)  # backlog is pending, not bad
        # the ack lands before the next poll: credited good, never bad
        agg.counters["ds"] = {"ds.delivered": 2, "ds.acked": 2}
        engine.ingest(agg, now=1.0)
        assert engine.counts("publish_ack") == (2, 0)

    def test_publish_ack_stale_backlog_goes_bad(self):
        engine = SloEngine(default_slos())
        agg = _FakeAggregator()
        agg.counters["ds"] = {"ds.delivered": 3, "ds.acked": 1}
        engine.ingest(agg, now=0.0)
        # the backlog survived a full poll interval → bad
        engine.ingest(agg, now=1.0)
        assert engine.counts("publish_ack") == (1, 2)
        # a straggler acked later is credited good without re-debiting
        agg.counters["ds"] = {"ds.delivered": 3, "ds.acked": 3}
        engine.ingest(agg, now=2.0)
        good, bad = engine.counts("publish_ack")
        assert (good, bad) == (3, 2)

    def test_store_recovery_once_per_observed_recovery(self):
        engine = SloEngine(default_slos())
        agg = _FakeAggregator()
        agg.counters["rs"] = {"store.recovery_s": 0.5}
        engine.ingest(agg, now=0.0)
        engine.ingest(agg, now=1.0)  # unchanged gauge: no new event
        assert engine.counts("store_recovery") == (1, 0)
        agg.counters["rs"] = {"store.recovery_s": 5.0}  # a new, slow recovery
        engine.ingest(agg, now=2.0)
        assert engine.counts("store_recovery") == (1, 1)


class TestExport:
    def _burned_engine(self) -> SloEngine:
        engine = SloEngine(chaos_slos(1.0))
        engine.record("delivery_latency", at=0.1, value=0.2, trace_id=77)
        engine.record("delivery_latency", at=0.2, value=4.0, trace_id=88)
        engine.record("delivery_integrity", good=True, at=0.2)
        engine.evaluate(0.3)
        return engine

    def test_report_document_shape(self):
        report = self._burned_engine().report()
        latency = report["slos"]["delivery_latency"]
        assert latency["good"] == 1 and latency["bad"] == 1
        assert latency["error_budget_remaining"] == pytest.approx(-9.0)
        assert latency["burn_rates"]["0.25s/1s"]["severity"] == "page"
        assert latency["burn_rates"]["0.25s/1s"]["short_burn"] > 1
        assert {alert["slo"] for alert in report["active_alerts"]} == {
            "delivery_latency"
        }

    def test_slo_series_round_trip_with_exemplars(self):
        """slo_* series survive the strict OpenMetrics round trip
        byte-identically, exemplar trace ids included."""
        registry = self._burned_engine().registry()
        text = to_openmetrics(registry, gauge_names=SLO_GAUGE_METRICS)
        assert "# TYPE p3s_slo_alert_active gauge" in text
        assert 'p3s_slo_alert_active{severity="page",slo="delivery_latency"} 1' in text
        # the slowest delivery's trace id is attached as an exemplar
        assert '# {trace_id="88"}' in text
        parsed = parse_openmetrics(text)
        assert parsed.render() == text
        assert parsed.value(
            "p3s_slo_bad_total", slo="delivery_latency"
        ) == 1

    def test_alert_active_gauge_clears(self):
        engine = self._burned_engine()
        engine.evaluate(10.0)
        text = to_openmetrics(engine.registry(), gauge_names=SLO_GAUGE_METRICS)
        assert 'p3s_slo_alert_active{severity="page",slo="delivery_latency"} 0' in text

    def test_exposition_class_importable(self):
        assert Exposition is parse_openmetrics("# EOF\n").__class__
