"""repro.obs — tracing, metrics, and crypto-profiling observability.

The measurement surface for every optimization claim in this repo: where
does a publication's time go (HVE match at the subscriber? pairing
evaluations? DS egress serialization?) and how many of each crypto
operation ran, attributed to the component that ran them.

Pieces:

* :mod:`~repro.obs.tracing` — structured spans over simulated time with
  context propagation across network messages (one causal tree per
  publication: ``publish → ds.fan_out → subscriber.match →
  subscriber.retrieve → deliver``);
* :mod:`~repro.obs.metrics` — labelled counters and histograms
  (pairings, exponentiations, HVE matches, bytes per hop, queue depths);
* :mod:`~repro.obs.hooks` — the hooks installed into hot paths, and
  the global on/off switch that makes everything a no-op when disabled;
* :mod:`~repro.obs.export` — JSONL spans and console trees;
* :mod:`~repro.obs.ring` — the bounded flight recorder behind a live
  service's span storage (memory-flat for week-long processes);
* :mod:`~repro.obs.exposition` — Prometheus/OpenMetrics text, the one
  format metrics are written in;
* :mod:`~repro.obs.aggregate` — :class:`TelemetryAggregator`, merging
  per-service scrapes into one deployment-wide registry and reassembling
  cross-socket publish→deliver span trees;
* :mod:`~repro.obs.slo` — :class:`SloEngine`, declarative SLOs with
  error-budget accounting and multi-window multi-burn-rate alerting;
* :mod:`~repro.obs.prof` — continuous profiling: span-attributed stack
  samplers (wall-clock and deterministic op-count modes), the profile
  dict recordings and the telemetry wire share, collapsed-stack export,
  self-time diffs, and the crypto cost ledger.  Imported on demand
  (``from repro.obs.prof import ...``), not re-exported here — the
  ledger pulls in the crypto stack, which itself imports this package's
  hooks;
* :mod:`~repro.obs.observability` — the :class:`Observability` bundle
  experiments pass via ``P3SConfig(obs=...)``.
"""

from .aggregate import TelemetryAggregator
from .export import (
    format_op_summary,
    format_span_tree,
    spans_to_jsonl,
    write_spans_jsonl,
)
from .exposition import sanitize_metric_name, to_openmetrics
from .hooks import active, active_profiler, instrument, record_op
from .metrics import Counter, Histogram, MetricsRegistry
from .observability import Observability
from .ring import DEFAULT_FLIGHT_RECORDER_CAPACITY, FlightRecorder
from .slo import (
    CHAOS_WINDOWS,
    DEFAULT_WINDOWS,
    SLO_GAUGE_METRICS,
    Alert,
    BurnRateWindow,
    SloEngine,
    SloSpec,
    chaos_slos,
    default_slos,
)
from .tracing import CONTEXT_HEADER, Span, SpanContext, Tracer

__all__ = [
    "Observability",
    "SloEngine",
    "SloSpec",
    "BurnRateWindow",
    "Alert",
    "DEFAULT_WINDOWS",
    "CHAOS_WINDOWS",
    "SLO_GAUGE_METRICS",
    "default_slos",
    "chaos_slos",
    "Tracer",
    "Span",
    "SpanContext",
    "CONTEXT_HEADER",
    "MetricsRegistry",
    "Counter",
    "Histogram",
    "FlightRecorder",
    "DEFAULT_FLIGHT_RECORDER_CAPACITY",
    "TelemetryAggregator",
    "to_openmetrics",
    "sanitize_metric_name",
    "record_op",
    "instrument",
    "active",
    "active_profiler",
    "spans_to_jsonl",
    "write_spans_jsonl",
    "format_span_tree",
    "format_op_summary",
]
