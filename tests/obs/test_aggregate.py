"""TelemetryAggregator: one feeder for per-service snapshots — health
merge, label-scoped metric merge, span reassembly, publish→deliver
latency, and the drop count kept once per process."""

from repro.obs import TelemetryAggregator, aggregate


def _health(service: str, ready: bool = True, **checks: bool) -> dict:
    return {
        "service": service,
        "alive": True,
        "ready": ready,
        "checks": checks or {"listening": True},
    }


def _snapshot(service: str, counters=None, histograms=None, origin="proc-1") -> dict:
    return {
        **_health(service),
        "origin": origin,
        "counters": counters or [],
        "histograms": histograms or [],
    }


def _spans(service: str, spans: list[dict]) -> dict:
    """A snapshot of a service that has nothing but drained spans to report."""
    return {**_health(service), "spans": spans}


def _dropped(service: str, count: int, origin: str) -> dict:
    return _snapshot(
        service, [{"name": "obs.dropped_spans", "labels": {}, "value": count}], origin=origin
    )


def _span(trace_id, span_id, name, start, end, component="x") -> dict:
    return {
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": None,
        "name": name,
        "component": component,
        "start_s": start,
        "end_s": end,
    }


class TestHealth:
    def test_all_ready_requires_every_service(self):
        agg = TelemetryAggregator()
        agg.ingest(_health("ds"))
        agg.ingest(_health("rs", ready=False, gc_running=False))
        assert agg.all_alive
        assert not agg.all_ready
        rows = {row[0]: row for row in agg.health_rows()}
        assert rows["ds"][2] == "yes"
        assert rows["rs"][2] == "NO"
        assert "gc_running" in rows["rs"][3]

    def test_empty_aggregator_is_not_ready(self):
        agg = TelemetryAggregator()
        assert not agg.all_alive
        assert not agg.all_ready

    def test_unknown_service_reads_as_dead(self):
        agg = TelemetryAggregator()
        assert agg.health("ghost") == {"service": "ghost", "alive": False, "ready": False}


class TestMetricsMerge:
    def test_same_name_different_services_stay_separate(self):
        agg = TelemetryAggregator()
        agg.ingest(_snapshot("ds", [{"name": "op.g1_exp", "labels": {"component": "ds"}, "value": 5}]))
        agg.ingest(_snapshot("rs", [{"name": "op.g1_exp", "labels": {"component": "rs"}, "value": 7}]))
        merged = agg.merged_registry()
        assert merged.counter_value("op.g1_exp", component="ds", service="ds") == 5
        assert merged.counter_value("op.g1_exp", component="rs", service="rs") == 7
        assert agg.counter_total("op.g1_exp") == 12
        assert agg.service_counter_total("ds", "op.g1_exp") == 5

    def test_same_name_different_labels_within_one_service(self):
        agg = TelemetryAggregator()
        agg.ingest(
            _snapshot(
                "anon",
                [
                    {"name": "live.net.tx_bytes", "labels": {"peer": "rs"}, "value": 100},
                    {"name": "live.net.tx_bytes", "labels": {"peer": "pbe-ts"}, "value": 50},
                ],
            )
        )
        merged = agg.merged_registry()
        assert merged.counter_value("live.net.tx_bytes", peer="rs", service="anon") == 100
        assert merged.counter_value("live.net.tx_bytes", peer="pbe-ts", service="anon") == 50
        assert agg.service_counter_total("anon", "live.net.tx_bytes") == 150

    def test_repeated_polls_replace_not_accumulate(self):
        agg = TelemetryAggregator()
        for total in (10, 25):
            agg.ingest(_snapshot("ds", [{"name": "ds.published", "labels": {}, "value": total}]))
        assert agg.counter_total("ds.published") == 25

    def test_histograms_merge_with_service_label(self):
        agg = TelemetryAggregator()
        agg.ingest(
            _snapshot(
                "rs",
                histograms=[{"name": "op.store.wall_s", "labels": {}, "values": [0.1, 0.3]}],
            )
        )
        histogram = agg.merged_registry().histogram("op.store.wall_s", service="rs")
        assert histogram.count == 2

    def test_op_table_columns_by_service(self):
        agg = TelemetryAggregator()
        agg.ingest(_snapshot("ds", [{"name": "op.pairing", "labels": {"component": "ds"}, "value": 4}]))
        table = agg.op_table()
        assert "pairing" in table
        assert "ds" in table

    def test_an_unreachable_service_keeps_its_last_metrics(self):
        agg = TelemetryAggregator()
        agg.ingest(_snapshot("ds", [{"name": "ds.delivered", "labels": {}, "value": 7}]))
        agg.ingest({"service": "ds", "alive": False, "ready": False, "checks": {}})
        assert not agg.health("ds")["alive"]
        assert agg.service_counter_total("ds", "ds.delivered") == 7


class TestSpans:
    def test_dedup_across_services(self):
        # one process, two services: the same span and the same cumulative
        # drop count arrive twice, and each is kept once
        agg = TelemetryAggregator()
        shared = _span(1, 1, "publish", 0.0, 1.0)
        agg.ingest({**_dropped("ds", 3, origin="proc-1"), "spans": [shared]})
        agg.ingest({**_dropped("rs", 3, origin="proc-1"), "spans": [dict(shared)]})
        assert len(agg.spans()) == 1
        assert agg.total_dropped_spans == 3

    def test_finished_span_wins_over_open(self):
        agg = TelemetryAggregator()
        agg.ingest(_spans("ds", [_span(1, 1, "publish", 0.0, None)]))
        agg.ingest(_spans("ds", [_span(1, 1, "publish", 0.0, 2.5)]))
        (span,) = agg.spans()
        assert span["end_s"] == 2.5

    def test_publish_deliver_latency_per_trace(self):
        agg = TelemetryAggregator()
        # trace 1: publish at t=1, two delivers ending at 1.4 and 1.9
        agg.ingest(
            _spans(
                "ds",
                [
                    _span(1, 1, "publish", 1.0, 1.1),
                    _span(1, 2, "deliver", 1.3, 1.4),
                    _span(1, 3, "deliver", 1.7, 1.9),
                ],
            )
        )
        # trace 2: publish still missing its deliver — skipped
        agg.ingest(_spans("ds", [_span(2, 4, "publish", 5.0, 5.1)]))
        latencies = agg.publish_deliver_latencies()
        assert latencies == [pytest_approx(0.9)]
        summary = agg.latency_summary()
        assert summary["count"] == 1
        assert summary["p50_s"] == pytest_approx(0.9)
        assert summary["max_s"] == pytest_approx(0.9)

    def test_latency_window_bounds_history(self):
        agg = TelemetryAggregator(latency_window=3)
        for trace in range(10):
            agg.ingest(
                _spans(
                    "ds",
                    [
                        _span(trace, trace * 2 + 1, "publish", float(trace), float(trace)),
                        _span(trace, trace * 2 + 2, "deliver", float(trace), trace + 0.5),
                    ],
                )
            )
        assert len(agg.publish_deliver_latencies()) == 3


class TestDroppedSpans:
    """The drop count is cumulative and process-wide: the latest value per
    origin, summed over origins."""

    def test_repeated_sweeps_do_not_grow_the_total(self):
        agg = TelemetryAggregator()
        for _sweep in range(3):
            for service in ("ds", "rs", "pbe-ts", "anon"):
                agg.ingest(_dropped(service, 92, origin="proc-1"))
        assert agg.total_dropped_spans == 92

    def test_a_later_sweep_replaces_the_count(self):
        agg = TelemetryAggregator()
        agg.ingest(_dropped("ds", 5, origin="proc-1"))
        agg.ingest(_dropped("ds", 9, origin="proc-1"))
        assert agg.total_dropped_spans == 9

    def test_two_processes_sum(self):
        agg = TelemetryAggregator()
        agg.ingest(_dropped("ds", 5, origin="proc-1"))
        agg.ingest(_dropped("rs", 7, origin="proc-2"))
        agg.ingest(_dropped("ds", 5, origin="proc-1"))
        assert agg.total_dropped_spans == 12


def pytest_approx(value, rel=1e-9):
    import pytest

    return pytest.approx(value, rel=rel)


def test_to_json_shape():
    agg = TelemetryAggregator()
    agg.ingest(_snapshot("ds", [{"name": "op.pairing", "labels": {"component": "ds"}, "value": 2}]))
    agg.ingest(_spans("ds", [_span(1, 1, "publish", 0.0, 0.1), _span(1, 2, "deliver", 0.2, 0.4)]))
    document = agg.to_json()
    assert document["all_alive"] and document["all_ready"]
    assert document["services"]["ds"]["ready"]
    assert document["ops"]["op.pairing"] == {"ds": 2}
    assert document["span_count"] == 2
    assert document["latency"]["count"] == 1
    assert document["span_evictions"] == 0
    assert document["dropped_spans"] == 0
    assert document["observability"]["ds"]["dropped_spans"] == 0


def _trace_ids(agg) -> list[int]:
    return sorted({span["trace_id"] for span in agg.spans()})


class TestSpanTableBound:
    def test_lru_eviction_with_counter(self, monkeypatch):
        monkeypatch.setattr(aggregate, "SPAN_TABLE_CAPACITY", 4)
        agg = TelemetryAggregator()
        for index in range(10):
            agg.ingest(_spans("ds", [_span(index, index, "publish", float(index), None)]))
        assert len(agg.spans()) == 4
        assert agg.span_evictions == 6
        # oldest-touched evicted first: the survivors are the newest
        assert _trace_ids(agg) == [6, 7, 8, 9]

    def test_re_seen_span_is_refreshed_not_evicted(self, monkeypatch):
        monkeypatch.setattr(aggregate, "SPAN_TABLE_CAPACITY", 3)
        agg = TelemetryAggregator()
        agg.ingest(_spans("ds", [_span(1, 1, "publish", 0.0, 0.1)]))
        agg.ingest(_spans("ds", [_span(2, 2, "publish", 1.0, 1.1)]))
        # trace 1 arrives again (second service's scrape): touched → MRU
        agg.ingest(_spans("rs", [_span(1, 1, "publish", 0.0, 0.1)]))
        agg.ingest(_spans("ds", [_span(3, 3, "publish", 2.0, 2.1)]))
        agg.ingest(_spans("ds", [_span(4, 4, "publish", 3.0, 3.1)]))
        assert 1 in _trace_ids(agg)  # survived: it was re-touched
        assert 2 not in _trace_ids(agg)  # the actual LRU entry went

    def test_default_capacity_is_sane(self):
        assert aggregate.SPAN_TABLE_CAPACITY >= 1024


class TestServiceObservability:
    def test_to_json_carries_per_service_observability(self):
        agg = TelemetryAggregator()
        agg.ingest(_dropped("ds", 3, origin="proc-1"))
        assert agg.to_json()["observability"] == {"ds": {"dropped_spans": 3}}
