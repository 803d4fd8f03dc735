"""Prometheus/OpenMetrics text exposition for a :class:`MetricsRegistry`.

The one text format metrics are written in: the live telemetry plane's
``live status --metrics-out`` and ``repro demo --metrics-out`` both write
:func:`to_openmetrics` — counters become ``<name>_total`` counter
families, histograms become summary families with ``quantile`` labels
plus ``_count``/``_sum``, dots in metric names map to underscores, label
values are escaped per the spec, and a ``# EOF`` line ends the document.

Histogram series carrying exemplars (:class:`~repro.obs.metrics.Histogram`
``(value, trace_id)`` pairs) render their worst exemplar on the highest
quantile line as an OpenMetrics exemplar annotation —
``… 0.91 # {trace_id="17"} 0.91`` — which is how an SLO alert links
directly to the offending trace.

Only the subset of OpenMetrics this repo emits is rendered — counter,
gauge and summary families with float values.  The strict parser that
proves the exposition round-trips lives with the tests.
"""

from __future__ import annotations

import re

from .metrics import MetricsRegistry

__all__ = ["to_openmetrics", "sanitize_metric_name"]

NAMESPACE = "p3s"  # the prefix of every exposed metric name
SUMMARY_QUANTILES = (0.5, 0.9, 0.95, 0.99)

_VALID_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Map a repo metric name (``op.hve.match``) to a legal exposition
    name (``p3s_op_hve_match``)."""
    flat = _INVALID_CHARS.sub("_", name)
    if not flat or not _VALID_NAME.match(flat):
        flat = "_" + flat
    return f"{NAMESPACE}_{flat}"


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    # Integral values render without a fraction regardless of int/float
    # representation, so exposition → parse → re-expose is the identity.
    as_float = float(value)
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)


def to_openmetrics(
    registry: MetricsRegistry,
    gauge_names: frozenset[str] | set[str] = frozenset(),
) -> str:
    """Render ``registry`` in OpenMetrics text format.

    Counter names in ``gauge_names`` are typed ``gauge`` (point-in-time
    values like open-connection counts); everything else is a monotone
    ``counter`` and gets the spec's ``_total`` sample suffix.
    Histograms render as ``summary`` families with exact nearest-rank
    quantiles (raw values are retained at this scale, so no buckets are
    needed).
    """
    lines: list[str] = []

    by_counter: dict[str, list] = {}
    for (name, label_key), counter in sorted(registry.counters.items()):
        by_counter.setdefault(name, []).append((label_key, counter.value))
    for name, series in by_counter.items():
        flat = sanitize_metric_name(name)
        kind = "gauge" if name in gauge_names else "counter"
        lines.append(f"# TYPE {flat} {kind}")
        sample_name = flat if kind == "gauge" else flat + "_total"
        for label_key, value in series:
            lines.append(f"{sample_name}{_format_labels(dict(label_key))} {_format_value(value)}")

    by_histogram: dict[str, list] = {}
    for (name, label_key), histogram in sorted(registry.histograms.items()):
        by_histogram.setdefault(name, []).append((label_key, histogram))
    for name, series in by_histogram.items():
        flat = sanitize_metric_name(name)
        lines.append(f"# TYPE {flat} summary")
        for label_key, histogram in series:
            labels = dict(label_key)
            top = histogram.top_exemplar
            for index, quantile in enumerate(SUMMARY_QUANTILES):
                q_labels = {**labels, "quantile": f"{quantile:g}"}
                line = (
                    f"{flat}{_format_labels(q_labels)} "
                    f"{_format_value(histogram.percentile(quantile))}"
                )
                # the worst exemplar annotates the highest quantile:
                # an alerting p99 links straight to its worst trace
                if top is not None and index == len(SUMMARY_QUANTILES) - 1:
                    value, trace_id = top
                    line += f' # {{trace_id="{trace_id}"}} {_format_value(value)}'
                lines.append(line)
            lines.append(f"{flat}_count{_format_labels(labels)} {_format_value(float(histogram.count))}")
            lines.append(f"{flat}_sum{_format_labels(labels)} {_format_value(histogram.total)}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"
