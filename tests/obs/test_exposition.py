"""OpenMetrics exposition: rendering, escaping, and round-trip parsing."""

import pytest

from repro.obs import to_openmetrics
from repro.obs.exposition import sanitize_metric_name
from repro.obs.metrics import MetricsRegistry

from .openmetrics import parse_openmetrics


def test_sanitize_metric_name():
    assert sanitize_metric_name("op.hve.match") == "p3s_op_hve_match"
    assert sanitize_metric_name("live.net.tx_bytes") == "p3s_live_net_tx_bytes"
    assert sanitize_metric_name("weird metric-name!") == "p3s_weird_metric_name_"


def test_counter_rendering_and_types():
    registry = MetricsRegistry()
    registry.inc("op.pairing", 3, component="ds")
    registry.inc("live.rpc.open_connections", 2)
    text = to_openmetrics(registry, gauge_names={"live.rpc.open_connections"})
    assert "# TYPE p3s_op_pairing counter" in text
    assert 'p3s_op_pairing_total{component="ds"} 3' in text
    assert "# TYPE p3s_live_rpc_open_connections gauge" in text
    # gauges do not get the _total suffix
    assert "p3s_live_rpc_open_connections 2" in text
    assert text.endswith("# EOF\n")


def test_histogram_renders_as_summary():
    registry = MetricsRegistry()
    for value in (1.0, 2.0, 3.0, 4.0):
        registry.observe("op.match.wall_s", value, component="sub")
    text = to_openmetrics(registry)
    parsed = parse_openmetrics(text)
    assert parsed.types["p3s_op_match_wall_s"] == "summary"
    assert parsed.value("p3s_op_match_wall_s_count", component="sub") == 4
    assert parsed.value("p3s_op_match_wall_s_sum", component="sub") == 10.0
    # nearest-rank rule: index = round(0.5 * 3) = 2 → the third sample
    assert parsed.value("p3s_op_match_wall_s", component="sub", quantile="0.5") == 3.0
    assert parsed.value("p3s_op_match_wall_s", component="sub", quantile="0.99") == 4.0


def test_round_trip_every_sample():
    registry = MetricsRegistry()
    registry.inc("op.g1_exp", 41, component="pbe-ts")
    registry.inc("op.g1_exp", 7, component="ds")
    registry.inc("net.bytes", 123456, src="pub", dst="ds")
    registry.observe("net.egress_wait_s", 0.25, host="ds")
    text = to_openmetrics(registry)
    parsed = parse_openmetrics(text)
    assert parsed.value("p3s_op_g1_exp_total", component="pbe-ts") == 41
    assert parsed.value("p3s_op_g1_exp_total", component="ds") == 7
    assert parsed.total("p3s_op_g1_exp_total") == 48
    assert parsed.value("p3s_net_bytes_total", dst="ds", src="pub") == 123456
    assert parsed.value("p3s_net_egress_wait_s_sum", host="ds") == 0.25


def test_label_escaping_round_trips():
    registry = MetricsRegistry()
    hostile = 'quote " backslash \\ newline \n done'
    registry.inc("op.weird", 1, component=hostile)
    text = to_openmetrics(registry)
    assert "\n done" not in text.split("# EOF")[0].splitlines()[1]  # newline escaped
    parsed = parse_openmetrics(text)
    assert parsed.value("p3s_op_weird_total", component=hostile) == 1


def test_float_values_survive():
    registry = MetricsRegistry()
    registry.inc("op.fractional", 2.5)
    parsed = parse_openmetrics(to_openmetrics(registry))
    assert parsed.value("p3s_op_fractional_total") == 2.5


def test_empty_registry_is_just_eof():
    assert to_openmetrics(MetricsRegistry()) == "# EOF\n"
    assert parse_openmetrics("# EOF\n").samples == {}


class TestByteIdenticalRoundTrip:
    """render(parse(text)) == text — the parser keeps enough structure
    (sample order, TYPE placement, exemplars) to re-emit its input."""

    def _registry(self):
        registry = MetricsRegistry()
        registry.inc("op.pairing", 120, component="ds")
        registry.inc("op.fractional", 2.5)
        registry.observe("op.match.wall_s", 0.25, component="sub")
        registry.observe("op.match.wall_s", 4.0, component="sub")
        return registry

    def test_plain_series_round_trip_bytes(self):
        text = to_openmetrics(self._registry())
        assert parse_openmetrics(text).render() == text

    def test_exemplar_round_trip_bytes(self):
        registry = self._registry()
        registry.observe_exemplar("slo.latency_s", 4.0, 88, slo="delivery_latency")
        text = to_openmetrics(registry)
        assert '# {trace_id="88"} 4' in text
        parsed = parse_openmetrics(text)
        assert parsed.render() == text
        key = next(iter(parsed.exemplars))
        labels, value = parsed.exemplars[key]
        assert dict(labels) == {"trace_id": "88"}
        assert value == 4.0

    def test_hostile_labels_round_trip_bytes(self):
        registry = self._registry()
        registry.inc("op.weird", 1, component='we"ird\\x', note="line\nbreak")
        text = to_openmetrics(registry)
        parsed = parse_openmetrics(text)
        assert parsed.render() == text
        assert parsed.value("p3s_op_weird_total", component='we"ird\\x', note="line\nbreak") == 1

    def test_integer_valued_floats_render_without_decimal(self):
        # 120.0 must render "120" both times or the round trip drifts
        registry = MetricsRegistry()
        registry.inc("op.pairing", 120.0)
        text = to_openmetrics(registry)
        assert "p3s_op_pairing_total 120\n" in text
        assert parse_openmetrics(text).render() == text


class TestParserStrictness:
    def test_missing_eof_rejected(self):
        with pytest.raises(ValueError, match="EOF"):
            parse_openmetrics("p3s_x_total 1\n")

    def test_content_after_eof_rejected(self):
        with pytest.raises(ValueError, match="after"):
            parse_openmetrics("# EOF\np3s_x_total 1\n")

    def test_malformed_sample_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_openmetrics("!!nonsense!!\n# EOF\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="bad value"):
            parse_openmetrics("p3s_x_total notanumber\n# EOF\n")

    def test_malformed_labels_rejected(self):
        with pytest.raises(ValueError, match="label"):
            parse_openmetrics('p3s_x_total{component=unquoted} 1\n# EOF\n')
