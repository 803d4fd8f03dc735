"""From raw measurements to named metrics, and how they are printed.

Every metric is ``name -> (value, unit)``.  The end-to-end set comes
from an untraced run; the per-layer set from a traced one (the traced
span ledger, a few harness counters, and the layer ladder).  Times are
corrected for machine speed (see :mod:`speed`); the uncorrected readings
are computed the same way with a factor of 1 and shown beside them.
"""

from __future__ import annotations

from drivers import Measurements
from oracle import Oracle
from stats import median, percentile, tail_percentile
from tracing import Tracer, layer_metrics, ledger, measured_spans
from workloads import Inputs

__all__ = ["end_to_end", "failures", "per_layer", "format_metrics", "format_waterfall"]

MEASURED_PHASES = ("latency", "throughput")


def failures(m: Measurements, oracle: Oracle) -> tuple[int, int]:
    """``(attempted, failed)`` operations of the whole run."""
    attempted = m.publishes + m.subscribe_calls + oracle.expected
    failed = (
        m.publish_errors + m.subscribe_errors + len(oracle.missing()) + len(oracle.wrong)
    )
    return attempted, failed


def measured_publications(m: Measurements) -> int:
    return len(m.latency_sent) + m.throughput[0]


def _timings(m: Measurements, oracle: Oracle, factor) -> tuple[dict, int]:
    """The time-based end-to-end metrics and how many latency samples
    they rest on; ``factor(start, end)`` is the machine-speed correction
    for a time measured over that interval."""
    # One latency per publication: from its send (its *scheduled* send
    # in the open loop) to the last delivery it owes.  Per-delivery
    # samples cluster by subscriber position in the fan-out, and with
    # two equal clusters their median is the edge of one — an extreme.
    latencies = []
    for index in m.latency_sent:
        if oracle.arrivals[index] and not oracle.outstanding(index):
            sent, last = m.sent_at[index], max(oracle.arrivals[index].values())
            latencies.append((last - sent) * 1e3 * factor(sent, last))
    publishes = [
        seconds * 1e3 * factor(m.sent_at[i], m.sent_at[i] + seconds)
        for i, seconds in m.publish_s.items()
    ]
    subscribes = [seconds * 1e3 * factor(at, at + seconds) for at, seconds in m.subscribes]
    sent, started, ended = m.throughput
    metrics = {
        "setup_s": (median([(e - s) * factor(s, e) for s, e in m.setups]), "s"),
        "deliver_ms_p50": (median(latencies), "ms"),
        "deliver_ms_tail": (percentile(latencies, tail_percentile(len(latencies))), "ms"),
        "publish_ms_p50": (median(publishes), "ms"),
        "subscribe_ms_p50": (median(subscribes), "ms"),
        "throughput_pub_s": (sent / ((ended - started) * factor(started, ended)), "1/s"),
        "cpu_s_per_pub": (m.cpu_s * factor(*m.measured) / measured_publications(m), "s"),
    }
    return metrics, len(latencies)


def end_to_end(inputs: Inputs, m: Measurements, oracle: Oracle) -> tuple[dict, dict]:
    """The end-to-end metrics plus the details printed beside them."""
    owed = sum(len(oracle.arrivals[i]) + oracle.outstanding(i) for i in m.latency_sent)
    # the limit is a promise to users in real milliseconds: no correction
    on_time = sum(
        1
        for index in m.latency_sent
        for at in oracle.arrivals[index].values()
        if (at - m.sent_at[index]) * 1e3 <= inputs.workload.limit_ms
    )
    attempted, failed = failures(m, oracle)
    metrics, samples = _timings(m, oracle, m.speed.factor)
    metrics["on_time_share"] = (on_time / owed, "share")
    metrics["peak_rss_mib"] = (m.peak_rss_mib, "MiB")
    uncorrected, _ = _timings(m, oracle, lambda *interval: 1.0)
    details = {
        "as_measured": {name: value for name, (value, _) in uncorrected.items()},
        "speed_factor": m.speed.factor(*m.measured),
        "tail_percentile": tail_percentile(samples),
        "latency_samples": samples,
        "latency_limit_ms": inputs.workload.limit_ms,
        "publish_samples": len(m.publish_s),
        "subscribe_samples": len(m.subscribes),
        "setups": len(m.setups),
        "throughput_publications": m.throughput[0],
        "measured_publications": measured_publications(m),
        "failed_share": failed / attempted,
        "wrong_deliveries": oracle.wrong,
        "missing_deliveries": [list(pair) for pair in oracle.missing()],
    }
    return metrics, details


def per_layer(m: Measurements, tracer: Tracer, ladder_metrics: dict) -> tuple[dict, list]:
    """The per-layer metrics plus the ledger rows for the waterfall."""
    publications = measured_publications(m)
    spans = measured_spans(tracer, MEASURED_PHASES)
    # one correction for the measured phases: spans are too many to
    # correct one by one, and shares do not need it at all
    factor = m.speed.factor(m.phases["latency"][0], m.phases["throughput"][1])
    metrics = layer_metrics(tracer, spans, publications, factor)
    busy = sum(m.busy_s[phase] for phase in MEASURED_PHASES)
    rows = ledger(tracer, spans)
    covered = sum(self_s for _, self_s, _ in rows)
    late = m.generator_late_ms
    per_pub_ms = factor * 1e3 / publications
    metrics.update(
        {
            "store.bytes_on_disk": (m.store_bytes_on_disk, "B"),
            "net.wire_bytes": (m.wire_bytes / publications, "B/pub"),
            "engine.residual_ms": ((busy - covered) * per_pub_ms, "ms/pub"),
            "engine.residual_share": (1 - covered / busy, "share"),
            "ledger.coverage_share": (covered / busy, "share"),
            "bench.trace_overhead_share": (len(spans) * tracer.span_cost_s() / busy, "share"),
            "bench.generator_late_ms_p95": (percentile(late, 95) if late else 0.0, "ms"),
            "bench.backlog_end": (m.backlog_end, "count"),
        }
    )
    metrics.update(ladder_metrics)
    waterfall = [
        (layer, self_s / busy, self_s * per_pub_ms, calls / publications)
        for layer, self_s, calls in rows
    ]
    waterfall.append(("(engine residual)", 1 - covered / busy, (busy - covered) * per_pub_ms, 0.0))
    return metrics, waterfall


def format_metrics(title: str, metrics: dict, declared: list[dict], as_measured=None) -> str:
    """A table of the declared metrics, in declaration order."""
    lines = [title]
    for entry in declared:
        name = entry["name"]
        value, unit = metrics[name]
        note = f"{entry['better']} is better"
        if "bound" in entry:
            note += f", bound {entry['bound']:.0%}"
        if as_measured and name in as_measured:
            note += f"; as measured {as_measured[name]:.4f}"
        lines.append(f"  {name:<40} {value:>14.4f} {unit:<8} ({note})")
    return "\n".join(lines)


def format_waterfall(waterfall: list, top: int = 12) -> str:
    """Layers by self time per measured publication, largest first."""
    lines = ["waterfall (self time per measured publication, share of busy time)"]
    ranked = sorted(waterfall, key=lambda row: -row[1])
    for layer, share, self_ms, calls in ranked[:top]:
        lines.append(f"  {layer:<32} {self_ms:>10.3f} ms {share:>7.1%} {calls:>9.1f} calls")
    return "\n".join(lines)
