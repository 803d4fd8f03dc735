"""Process-wide registry of labelled counters and histograms.

Everything the instrumentation hooks record lands here: crypto-op
counters (pairings evaluated, G1/GT exponentiations, HVE match
attempts/hits, CP-ABE decrypts), per-hop byte counters, egress queue
waits, inbox depths.  The registry is deliberately simple — a dict of
:class:`Counter` and :class:`Histogram` keyed by (name, sorted labels) —
because a simulation run produces at most tens of thousands of samples.

Naming conventions used by the built-in hooks:

=======================  =========================  =======================
metric                   kind / labels              incremented by
=======================  =========================  =======================
``op.<op>``              counter, ``component``     ``record_op`` / ``@instrument``
``op.<op>.wall_s``       histogram, ``component``   ``@instrument`` (real compute)
``net.bytes``            counter, ``src``, ``dst``  :meth:`Network.transmit`
``net.egress_wait_s``    histogram, ``host``        sender-side queueing delay
``net.inbox_depth``      histogram, ``host``        receiver queue depth at deliver
=======================  =========================  =======================

The full list of emitted names, each with what reads it, is the
"Signals and their consumers" table of docs/OBSERVABILITY.md
(``tests/obs/test_signal_inventory.py`` keeps it exact).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Counter", "Histogram", "MetricsRegistry", "nearest_rank"]

_LabelKey = tuple[tuple[str, str], ...]


def nearest_rank(ordered: list[float], fraction: float) -> float:
    """The repo's one percentile rule: the sample at index
    ``round(fraction * (n - 1))`` of the sorted values (0.0 when there
    are none) — always an observed value, never an interpolation."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))]


def _label_key(labels: dict[str, object]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """A monotonically increasing labelled count."""

    name: str
    labels: _LabelKey
    value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount


# Exemplars retained per histogram series: the largest-valued
# observations with an attached trace id, so an alerting quantile links
# straight to an offending trace.
MAX_EXEMPLARS = 8


@dataclass
class Histogram:
    """All observed values for one (name, labels) series.

    Raw values are kept (simulation scale makes this cheap) so any
    percentile can be computed exactly — :func:`nearest_rank`, the rule
    :class:`repro.core.metrics.LatencyStats` uses too.

    ``exemplars`` holds up to :data:`MAX_EXEMPLARS` ``(value, trace_id)``
    pairs — the worst observations seen, each pointing at the trace that
    produced it.  The OpenMetrics exposition attaches the top exemplar
    to the highest quantile line.
    """

    name: str
    labels: _LabelKey
    values: list[float] = field(default_factory=list)
    exemplars: list[tuple[float, int]] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.values.append(value)

    def add_exemplar(self, value: float, trace_id: int) -> None:
        """Remember ``value`` came from ``trace_id`` (keeps the worst)."""
        self.exemplars.append((float(value), int(trace_id)))
        self.exemplars.sort(key=lambda pair: (-pair[0], pair[1]))
        del self.exemplars[MAX_EXEMPLARS:]

    @property
    def top_exemplar(self) -> tuple[float, int] | None:
        """The largest-valued exemplar, or ``None``."""
        return self.exemplars[0] if self.exemplars else None

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.total / len(self.values) if self.values else 0.0

    @property
    def maximum(self) -> float:
        return max(self.values) if self.values else 0.0

    def percentile(self, fraction: float) -> float:
        return nearest_rank(sorted(self.values), fraction)


class MetricsRegistry:
    """All counters and histograms of one observability instance."""

    def __init__(self):
        self.counters: dict[tuple[str, _LabelKey], Counter] = {}
        self.histograms: dict[tuple[str, _LabelKey], Histogram] = {}

    # -- recording -----------------------------------------------------------

    def inc(self, name: str, amount: float = 1, **labels: object) -> None:
        key = (name, _label_key(labels))
        counter = self.counters.get(key)
        if counter is None:
            counter = self.counters[key] = Counter(name, key[1])
        counter.value += amount

    def observe(self, name: str, value: float, **labels: object) -> None:
        key = (name, _label_key(labels))
        histogram = self.histograms.get(key)
        if histogram is None:
            histogram = self.histograms[key] = Histogram(name, key[1])
        histogram.values.append(value)

    def observe_exemplar(
        self, name: str, value: float, trace_id: int, **labels: object
    ) -> None:
        """Observe ``value`` and attach ``trace_id`` as its exemplar."""
        key = (name, _label_key(labels))
        histogram = self.histograms.get(key)
        if histogram is None:
            histogram = self.histograms[key] = Histogram(name, key[1])
        histogram.values.append(value)
        histogram.add_exemplar(value, trace_id)

    # -- queries ---------------------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> float:
        """One series' count (0 when never incremented)."""
        counter = self.counters.get((name, _label_key(labels)))
        return 0 if counter is None else counter.value

    def counter_total(self, name: str) -> float:
        """Sum over every label combination of ``name``."""
        return sum(c.value for (n, _), c in self.counters.items() if n == name)

    def counter_names(self) -> list[str]:
        """Distinct counter names, sorted."""
        return sorted({name for name, _ in self.counters})

    def counters_by_label(self, name: str, label: str) -> dict[str, float]:
        """``name`` totals grouped by one label's value (e.g. per component)."""
        result: dict[str, float] = {}
        for (n, label_key), counter in self.counters.items():
            if n != name:
                continue
            value = dict(label_key).get(label, "")
            result[value] = result.get(value, 0) + counter.value
        return result

    def histogram(self, name: str, **labels: object) -> Histogram | None:
        return self.histograms.get((name, _label_key(labels)))

    @property
    def empty(self) -> bool:
        return not self.counters and not self.histograms

    def clear(self) -> None:
        self.counters.clear()
        self.histograms.clear()

    # -- snapshots (the telemetry plane's JSON view) ----------------------------

    def counter_series(
        self, where: "Callable[[str, dict[str, str]], bool] | None" = None
    ) -> list[dict[str, object]]:
        """Every counter as ``{"name", "labels", "value"}``, stable order.

        ``where(name, labels)`` filters — e.g. a live service exporting
        only the series attributed to its own component.
        """
        out: list[dict[str, object]] = []
        for (name, label_key), counter in sorted(self.counters.items()):
            labels = dict(label_key)
            if where is not None and not where(name, labels):
                continue
            out.append({"name": name, "labels": labels, "value": counter.value})
        return out

    def histogram_series(
        self,
        where: "Callable[[str, dict[str, str]], bool] | None" = None,
        max_values: int | None = None,
    ) -> list[dict[str, object]]:
        """Every histogram as ``{"name", "labels", "values"}``.

        ``max_values`` caps each series to its most recent samples so a
        telemetry response stays bounded no matter how long the service
        has been up; the full count/sum survive in ``count``/``sum``.
        """
        out: list[dict[str, object]] = []
        for (name, label_key), histogram in sorted(self.histograms.items()):
            labels = dict(label_key)
            if where is not None and not where(name, labels):
                continue
            values = histogram.values
            if max_values is not None and len(values) > max_values:
                values = values[-max_values:]
            entry: dict[str, object] = {
                "name": name,
                "labels": labels,
                "values": list(values),
                "count": histogram.count,
                "sum": histogram.total,
            }
            if histogram.exemplars:
                entry["exemplars"] = [list(pair) for pair in histogram.exemplars]
            out.append(entry)
        return out

    # -- export ------------------------------------------------------------------

    def rows(self) -> list[dict[str, object]]:
        """Flat export rows, counters first, stable order."""
        out: list[dict[str, object]] = []
        for (name, label_key), counter in sorted(self.counters.items()):
            out.append(
                {
                    "kind": "counter",
                    "name": name,
                    "labels": ";".join(f"{k}={v}" for k, v in label_key),
                    "count": counter.value,
                    "sum": counter.value,
                    "mean": "",
                    "p95": "",
                    "max": "",
                }
            )
        for (name, label_key), histogram in sorted(self.histograms.items()):
            out.append(
                {
                    "kind": "histogram",
                    "name": name,
                    "labels": ";".join(f"{k}={v}" for k, v in label_key),
                    "count": histogram.count,
                    "sum": histogram.total,
                    "mean": histogram.mean,
                    "p95": histogram.percentile(0.95),
                    "max": histogram.maximum,
                }
            )
        return out
