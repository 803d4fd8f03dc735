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
  self-time diffs, and the crypto cost ledger.  Imported as
  ``from repro.obs.prof import ...``, not re-exported here: a package
  re-exports only the names some caller in ``src/``, ``benchmarks/`` or
  ``examples/`` imports through it, and no caller imports a profiler
  name through ``repro.obs`` (``tests/test_reachability.py``);
* :mod:`~repro.obs.observability` — the :class:`Observability` bundle
  experiments pass via ``P3SConfig(obs=...)``.
"""

from .exposition import to_openmetrics
from .observability import Observability

__all__ = ["Observability", "to_openmetrics"]
