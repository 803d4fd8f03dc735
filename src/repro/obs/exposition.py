"""Prometheus/OpenMetrics text exposition for a :class:`MetricsRegistry`.

The live telemetry plane renders every scrape twice: structured JSON for
the aggregator, and the OpenMetrics text format for anything that speaks
Prometheus.  This module owns the text side:

* :func:`to_openmetrics` — render a registry (counters become
  ``<name>_total`` counter families, histograms become summary families
  with ``quantile`` labels plus ``_count``/``_sum``), with dots in
  metric names mapped to underscores, label values escaped per the spec,
  and a terminating ``# EOF``;
* :func:`parse_openmetrics` — a small, strict parser used by tests (and
  handy for ad-hoc tooling) to prove the exposition round-trips: every
  rendered sample must come back with the same name, labels, and value,
  and :meth:`Exposition.render` re-emits the parsed document
  byte-identically (exposition → parse → re-expose is the identity).

Histogram series carrying exemplars (:class:`~repro.obs.metrics.Histogram`
``(value, trace_id)`` pairs) render their worst exemplar on the highest
quantile line as an OpenMetrics exemplar annotation —
``… 0.91 # {trace_id="17"} 0.91`` — which is how an SLO alert links
directly to the offending trace.

Only the subset of OpenMetrics this repo emits is supported — counter,
gauge, and summary families with float values.  That is deliberate: the
parser is a verification tool, not a scraping client.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .metrics import MetricsRegistry

__all__ = [
    "to_openmetrics",
    "parse_openmetrics",
    "Exposition",
    "sanitize_metric_name",
]

DEFAULT_NAMESPACE = "p3s"
SUMMARY_QUANTILES = (0.5, 0.9, 0.95, 0.99)

_VALID_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*?)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+#\s+\{(?P<exemplar_labels>[^}]*)\}\s+(?P<exemplar_value>[^\s]+))?"
    r"\s*$"
)
_LABEL_PAIR = re.compile(r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)')


def sanitize_metric_name(name: str, namespace: str = DEFAULT_NAMESPACE) -> str:
    """Map a repo metric name (``op.hve.match``) to a legal exposition
    name (``p3s_op_hve_match``)."""
    flat = _INVALID_CHARS.sub("_", name)
    if not flat or not _VALID_NAME.match(flat):
        flat = "_" + flat
    return f"{namespace}_{flat}" if namespace else flat


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape_label_value(value: str) -> str:
    out: list[str] = []
    index = 0
    while index < len(value):
        char = value[index]
        if char == "\\" and index + 1 < len(value):
            nxt = value[index + 1]
            out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, "\\" + nxt))
            index += 2
        else:
            out.append(char)
            index += 1
    return "".join(out)


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
    namespace: str = DEFAULT_NAMESPACE,
    extra_labels: dict[str, str] | None = None,
) -> str:
    """Render ``registry`` in OpenMetrics text format.

    Counter names in ``gauge_names`` are typed ``gauge`` (point-in-time
    values like open-connection counts); everything else is a monotone
    ``counter`` and gets the spec's ``_total`` sample suffix.
    Histograms render as ``summary`` families with exact nearest-rank
    quantiles (raw values are retained at this scale, so no buckets are
    needed).  ``extra_labels`` is stamped onto every sample — the
    aggregator uses it for the per-service label.
    """
    stamp = dict(extra_labels or {})
    lines: list[str] = []

    by_counter: dict[str, list] = {}
    for (name, label_key), counter in sorted(registry.counters.items()):
        by_counter.setdefault(name, []).append((label_key, counter.value))
    for name, series in by_counter.items():
        flat = sanitize_metric_name(name, namespace)
        kind = "gauge" if name in gauge_names else "counter"
        lines.append(f"# TYPE {flat} {kind}")
        sample_name = flat if kind == "gauge" else flat + "_total"
        for label_key, value in series:
            labels = {**dict(label_key), **stamp}
            lines.append(f"{sample_name}{_format_labels(labels)} {_format_value(value)}")

    by_histogram: dict[str, list] = {}
    for (name, label_key), histogram in sorted(registry.histograms.items()):
        by_histogram.setdefault(name, []).append((label_key, histogram))
    for name, series in by_histogram.items():
        flat = sanitize_metric_name(name, namespace)
        lines.append(f"# TYPE {flat} summary")
        for label_key, histogram in series:
            labels = {**dict(label_key), **stamp}
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


_LabelsKey = tuple[tuple[str, str], ...]


@dataclass
class Exposition:
    """A parsed exposition: sample values, family types, exemplars.

    ``samples`` and ``types`` preserve document order (insertion-ordered
    dicts), which is what lets :meth:`render` re-emit the exposition
    byte-identically — the round-trip proof the tests lean on.
    """

    types: dict[str, str] = field(default_factory=dict)
    samples: dict[tuple[str, _LabelsKey], float] = field(default_factory=dict)
    # sample key -> (exemplar labels, exemplar value)
    exemplars: dict[tuple[str, _LabelsKey], tuple[_LabelsKey, float]] = field(
        default_factory=dict
    )

    def value(self, name: str, **labels: str) -> float:
        """One sample's value; raises ``KeyError`` when absent."""
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        return self.samples[key]

    def total(self, name: str) -> float:
        """Sum of every sample of ``name`` across label sets."""
        return sum(v for (n, _), v in self.samples.items() if n == name)

    def _family_of(self, sample_name: str) -> str | None:
        """The family a sample belongs to (for TYPE-line placement)."""
        if sample_name in self.types:
            return sample_name
        for suffix in ("_total", "_count", "_sum"):
            if sample_name.endswith(suffix):
                family = sample_name[: -len(suffix)]
                if family in self.types:
                    return family
        return None

    def render(self) -> str:
        """Re-emit the exposition text, byte-identical to its source.

        Emits each family's ``# TYPE`` line immediately before its first
        sample, samples in parsed order, exemplar annotations included —
        the same layout :func:`to_openmetrics` produces, so
        ``render(parse_openmetrics(text)) == text`` for any text this
        module generated.
        """
        lines: list[str] = []
        emitted: set[str] = set()
        for (name, labels_key), value in self.samples.items():
            family = self._family_of(name)
            if family is not None and family not in emitted:
                lines.append(f"# TYPE {family} {self.types[family]}")
                emitted.add(family)
            line = f"{name}{_format_labels(dict(labels_key))} {_format_value(value)}"
            annotation = self.exemplars.get((name, labels_key))
            if annotation is not None:
                exemplar_labels, exemplar_value = annotation
                line += (
                    f" # {_format_labels(dict(exemplar_labels)) or '{}'}"
                    f" {_format_value(exemplar_value)}"
                )
            lines.append(line)
        lines.append("# EOF")
        return "\n".join(lines) + "\n"


def _parse_labels(raw: str) -> _LabelsKey:
    labels: list[tuple[str, str]] = []
    position = 0
    while position < len(raw):
        match = _LABEL_PAIR.match(raw, position)
        if match is None:
            raise ValueError(f"malformed label block at {raw[position:]!r}")
        labels.append((match.group("key"), _unescape_label_value(match.group("value"))))
        position = match.end()
    return tuple(sorted(labels))


def parse_openmetrics(text: str) -> Exposition:
    """Parse an exposition produced by :func:`to_openmetrics`.

    Strict about what it accepts (one metric per line, ``# TYPE``
    comments, a final ``# EOF``) so tests catch format drift.
    """
    exposition = Exposition()
    saw_eof = False
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if saw_eof:
            raise ValueError(f"line {line_number}: content after # EOF")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) == 4 and parts[1] == "TYPE":
                exposition.types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {line_number}: malformed sample {line!r}")
        labels = _parse_labels(match.group("labels") or "")
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(f"line {line_number}: bad value {match.group('value')!r}") from exc
        key = (match.group("name"), labels)
        exposition.samples[key] = value
        if match.group("exemplar_value") is not None:
            try:
                exemplar_value = float(match.group("exemplar_value"))
            except ValueError as exc:
                raise ValueError(
                    f"line {line_number}: bad exemplar value "
                    f"{match.group('exemplar_value')!r}"
                ) from exc
            exposition.exemplars[key] = (
                _parse_labels(match.group("exemplar_labels") or ""),
                exemplar_value,
            )
    if not saw_eof:
        raise ValueError("exposition missing terminating # EOF")
    return exposition
