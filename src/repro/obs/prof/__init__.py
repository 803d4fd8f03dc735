"""repro.obs.prof — continuous profiling: the third observability pillar.

Metrics say *how many* pairings ran and traces say *which hop* was slow;
profiles answer the remaining question — *where the cycles go inside a
span*.  Following the continuous-profiling practice of Google-Wide
Profiling scaled down to this reproduction:

* :mod:`~repro.obs.prof.model` — the :class:`Profile` value type:
  weighted call stacks in one readable format (the profile dict the
  telemetry wire carries) and one export (collapsed-stack "folded"
  text), self/total-time queries, origin-deduplicated merging, and
  self-time-delta diffs between two recordings;
* :mod:`~repro.obs.prof.sampler` — :class:`StackSampler`, the
  low-overhead background wall+CPU sampler (``sys._current_frames()``
  at a configurable hz, bounded ring, bounded stack table), every
  sample tagged with the current trace/span/component from the active
  tracer's span stack; and :class:`DeterministicSampler`, the
  op-count-triggered mode whose output is byte-identical for a pinned
  workload seed (the simulator's profile tests replay it);
* :mod:`~repro.obs.prof.ledger` — the crypto cost ledger: joins the
  ``op.*`` counters with :mod:`repro.perf.calibrate` per-op costs to
  report modeled-vs-measured self-time drift per component;
* :mod:`~repro.obs.prof.workload` — the seeded demo workload behind
  ``repro prof record`` and the profiler test battery.

The live plane exposes the active profiler in every service's
telemetry snapshot (:mod:`repro.live.telemetry`), the
:class:`~repro.obs.aggregate.TelemetryAggregator` merges scrapes
deduplicating by (origin, stack), and ``repro prof record|report|
diff|top`` is the offline surface.
"""

from .ledger import LedgerRow, cost_ledger, format_ledger
from .model import (
    OVERFLOW_FRAME,
    Profile,
    StackWeight,
    diff_profiles,
    format_diff,
    format_report,
    load_profile,
)
from .sampler import DeterministicSampler, StackSampler, start_default_profiler
from .workload import record_demo

__all__ = [
    "Profile",
    "StackWeight",
    "OVERFLOW_FRAME",
    "diff_profiles",
    "format_diff",
    "format_report",
    "load_profile",
    "StackSampler",
    "DeterministicSampler",
    "start_default_profiler",
    "LedgerRow",
    "cost_ledger",
    "format_ledger",
    "record_demo",
]
