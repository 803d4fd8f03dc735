"""Merge per-service telemetry snapshots into one deployment-wide view.

A live P3S deployment is four services (and any number of clients), each
exporting its own health document, metric series, and drained spans over
the telemetry RPCs (:mod:`repro.live.telemetry`).  The
:class:`TelemetryAggregator` is the substrate-free half of that plane:
it accepts plain snapshot dicts — whatever JSON came off the wire — and
maintains

* a **merged metrics registry**: every service's counters and histograms
  under a ``service`` label, rebuilt from the latest snapshot per
  service so repeated polls replace rather than double-count;
* a **reassembled span store**: spans from every scrape deduplicated by
  ``(trace_id, span_id)``, from which cross-socket publish→deliver trees
  are put back together and end-to-end latencies computed;
* a **merged profile**: the latest profile snapshot per *origin* token
  (a sampler instance's identity), so a single-process deployment whose
  four service endpoints all export the same process-wide sampler folds
  to one copy of each stack while four real processes sum — the
  hot-frames panel of ``repro live top`` and ``repro prof top`` read
  this;
* the **health table** behind ``repro live status`` / ``repro live top``.

Nothing here imports asyncio or sockets — the aggregator is equally
happy fed by the live telemetry client, by a test constructing snapshot
dicts by hand, or by an offline tool replaying scraped JSON.
"""

from __future__ import annotations

from collections import OrderedDict

from .export import format_op_summary
from .metrics import Histogram, MetricsRegistry

__all__ = ["TelemetryAggregator", "DEFAULT_SPAN_TABLE_CAPACITY"]

SERVICE_LABEL = "service"

# Span-dedup table bound: a `live top` left running for a week must not
# grow without limit, so the table is an LRU over span identity — the
# oldest-touched entries are evicted first and the eviction count is
# exported (truncation is never silent).
DEFAULT_SPAN_TABLE_CAPACITY = 8192


class TelemetryAggregator:
    """Deployment-wide merge of per-service telemetry snapshots."""

    def __init__(
        self,
        latency_window: int = 256,
        span_table_capacity: int | None = DEFAULT_SPAN_TABLE_CAPACITY,
    ):
        self.latency_window = latency_window
        self.span_table_capacity = span_table_capacity
        self._health: dict[str, dict] = {}
        self._metrics: dict[str, dict] = {}
        # profile-origin token -> (reporting services, latest profile dict);
        # replacement per origin is the (service, stack) dedup the live
        # tests pin: re-polling or multi-endpoint export never double-counts
        self._profiles: dict[str, tuple[set[str], dict]] = {}
        # (trace_id, span_id) -> span dict; finished spans win over open
        # ones; LRU-ordered so the bound evicts the least recently seen
        self._spans: OrderedDict[tuple[int, int], dict] = OrderedDict()
        self.total_dropped_spans = 0
        self.span_evictions = 0

    # -- feeding ---------------------------------------------------------------

    def update_health(self, service: str, health: dict) -> None:
        """Record ``service``'s latest health document (replaces prior)."""
        self._health[service] = dict(health)

    def update_metrics(self, service: str, snapshot: dict) -> None:
        """Record ``service``'s latest metrics snapshot (replaces prior).

        Snapshots carry point-in-time totals, so merging is
        *replacement*, never accumulation — polling twice must not
        double a counter.
        """
        self._metrics[service] = snapshot

    def add_spans(self, service: str, spans: list[dict], dropped: int | None = None) -> None:
        """Fold drained spans in, deduplicating across services.

        In a single-process deployment every service drains the same
        process-global flight recorder, so the same span can arrive via
        two services' scrapes — ``(trace_id, span_id)`` identity keeps
        exactly one copy.  ``dropped`` is the recorder's cumulative
        eviction count at scrape time (max-merged per call, since drains
        are destructive but the drop counter is monotone).
        """
        for span in spans:
            key = (span.get("trace_id"), span.get("span_id"))
            existing = self._spans.get(key)
            if existing is None or (existing.get("end_s") is None and span.get("end_s") is not None):
                self._spans[key] = span
            self._spans.move_to_end(key)
        if self.span_table_capacity is not None:
            while len(self._spans) > self.span_table_capacity:
                self._spans.popitem(last=False)
                self.span_evictions += 1
        if dropped:
            self.total_dropped_spans += dropped

    def add_profile(self, service: str, profile: dict) -> None:
        """Record ``service``'s latest profile snapshot.

        Profiles are cumulative and keyed by their sampler's ``origin``
        token: a later snapshot from the same origin *replaces* the
        earlier one (same semantics as metrics), and two services
        exporting the same process-wide sampler collapse to one entry —
        dedup by (origin, stack).  Distinct origins (real multi-process
        deployments) merge additively in :meth:`merged_profile`.
        """
        origin = profile.get("origin", service)
        services, _ = self._profiles.get(origin, (set(), None))
        services.add(service)
        self._profiles[origin] = (services, dict(profile))

    # -- health ----------------------------------------------------------------

    def services(self) -> list[str]:
        return sorted(set(self._health) | set(self._metrics))

    def health(self, service: str) -> dict:
        return self._health.get(service, {"service": service, "alive": False, "ready": False})

    @property
    def all_alive(self) -> bool:
        return bool(self._health) and all(h.get("alive") for h in self._health.values())

    @property
    def all_ready(self) -> bool:
        return bool(self._health) and all(h.get("ready") for h in self._health.values())

    def health_rows(self) -> list[list[str]]:
        """``[service, alive, ready, failing checks]`` rows for display."""
        rows: list[list[str]] = []
        for service in self.services():
            health = self.health(service)
            failing = sorted(
                name for name, ok in health.get("checks", {}).items() if not ok
            )
            rows.append(
                [
                    service,
                    "yes" if health.get("alive") else "NO",
                    "yes" if health.get("ready") else "NO",
                    ", ".join(failing) if failing else "-",
                ]
            )
        return rows

    # -- metrics ---------------------------------------------------------------

    def merged_registry(self) -> MetricsRegistry:
        """One registry holding every service's series under a
        ``service`` label, built from the latest snapshot per service."""
        merged = MetricsRegistry()
        for service, snapshot in sorted(self._metrics.items()):
            for entry in snapshot.get("counters", []):
                labels = {**entry.get("labels", {}), SERVICE_LABEL: service}
                merged.inc(entry["name"], entry.get("value", 0), **labels)
            for entry in snapshot.get("histograms", []):
                labels = {**entry.get("labels", {}), SERVICE_LABEL: service}
                for value in entry.get("values", []):
                    merged.observe(entry["name"], value, **labels)
        return merged

    def counter_total(self, name: str) -> float:
        """Deployment-wide total of one counter name."""
        return self.merged_registry().counter_total(name)

    def service_counter_total(self, service: str, name: str) -> float:
        """One service's total of one counter name (all label sets)."""
        snapshot = self._metrics.get(service, {})
        return sum(
            entry.get("value", 0)
            for entry in snapshot.get("counters", [])
            if entry["name"] == name
        )

    def op_table(self) -> str:
        """Per-service crypto/protocol op counts, as a console table."""
        merged = self.merged_registry()
        # format_op_summary columns by "component"; in the aggregated view
        # the column identity is the reporting service
        view = MetricsRegistry()
        for (name, label_key), counter in merged.counters.items():
            if not name.startswith("op."):
                continue
            service = dict(label_key).get(SERVICE_LABEL, "")
            view.inc(name, counter.value, component=service)
        return format_op_summary(view)

    # -- profiles ---------------------------------------------------------------

    def merged_profile(self):
        """One deployment-wide :class:`~repro.obs.prof.model.Profile`.

        Sums the latest snapshot of every distinct origin; snapshots
        sharing an origin were already collapsed by
        :meth:`add_profile`.  Empty profile when nothing was exported.
        """
        from .prof.model import Profile  # lazy: prof pulls in the crypto stack

        merged = Profile(mode="wall", origin="merged")
        modes: set[str] = set()
        for origin, (services, snapshot) in sorted(self._profiles.items()):
            part = Profile.from_dict(snapshot)
            modes.add(part.mode)
            merged.merge(part)
            merged.meta[f"origin:{origin}"] = ",".join(sorted(services))
        if len(modes) == 1:
            merged.mode = modes.pop()
        return merged

    def profile_origins(self) -> dict[str, list[str]]:
        """Which services reported each profile origin (dedup evidence)."""
        return {
            origin: sorted(services)
            for origin, (services, _) in sorted(self._profiles.items())
        }

    def hot_frames(self, limit: int = 10) -> list[tuple[str, float, float]]:
        """Top frames by self weight: ``(frame, self, fraction)`` rows.

        Weighted by wall seconds for wall profiles, sample counts for
        deterministic ones — whatever the merged mode implies.
        """
        profile = self.merged_profile()
        if not profile.samples:
            return []
        weight_key = "wall_s" if profile.mode == "wall" else "count"
        total = profile.total(weight_key) or 1.0
        ranked = sorted(
            profile.self_times(weight_key).items(), key=lambda kv: (-kv[1], kv[0])
        )
        return [(frame, value, value / total) for frame, value in ranked[:limit]]

    # -- span reassembly ---------------------------------------------------------

    def spans(self) -> list[dict]:
        """Every accumulated span, ordered by start time."""
        return sorted(self._spans.values(), key=lambda s: (s.get("start_s") or 0.0))

    def trace(self, trace_id: int) -> list[dict]:
        return [span for (t, _), span in sorted(self._spans.items()) if t == trace_id]

    def publish_deliver_trace_latencies(self) -> dict[int, float]:
        """End-to-end publish→deliver seconds keyed by trace id.

        A trace contributes once per completed delivery tree: latency is
        the latest ``deliver`` span end minus the ``publish`` root start,
        both on the exporting process's telemetry clock.  Traces still
        missing either side (payload in flight, span not yet drained)
        are skipped — they complete on a later poll.  The trace-id
        keying is what lets the SLO engine ingest incrementally and
        attach exemplars.
        """
        publishes: dict[int, float] = {}
        deliver_ends: dict[int, float] = {}
        for (trace_id, _), span in self._spans.items():
            if span.get("name") == "publish":
                publishes[trace_id] = span.get("start_s", 0.0)
            elif span.get("name") == "deliver" and span.get("end_s") is not None:
                deliver_ends[trace_id] = max(
                    deliver_ends.get(trace_id, float("-inf")), span["end_s"]
                )
        return {
            trace_id: deliver_ends[trace_id] - start
            for trace_id, start in sorted(publishes.items())
            if trace_id in deliver_ends
        }

    def publish_deliver_latencies(self) -> list[float]:
        """Latency values in trace order, windowed to ``latency_window``."""
        latencies = list(self.publish_deliver_trace_latencies().values())
        return latencies[-self.latency_window :]

    def latency_summary(self) -> dict[str, float]:
        """Rolling p50/p95/count over the reassembled latencies."""
        histogram = Histogram("publish_deliver_s", ())
        for value in self.publish_deliver_latencies():
            histogram.observe(value)
        return {
            "count": histogram.count,
            "p50_s": histogram.percentile(0.5),
            "p95_s": histogram.percentile(0.95),
            "max_s": histogram.maximum,
        }

    # -- export ------------------------------------------------------------------

    def to_json(self) -> dict:
        """The ``repro live status --json`` document."""
        merged = self.merged_registry()
        return {
            "services": {service: self.health(service) for service in self.services()},
            "all_alive": self.all_alive,
            "all_ready": self.all_ready,
            "counters": merged.rows(),
            "ops": {
                name: {
                    service: self.service_counter_total(service, name)
                    for service in sorted(self._metrics)
                    if self.service_counter_total(service, name)
                }
                for name in merged.counter_names()
                if name.startswith("op.")
            },
            "latency": self.latency_summary(),
            "dropped_spans": self.total_dropped_spans,
            "span_count": len(self._spans),
            "span_evictions": self.span_evictions,
            "profile": {
                "origins": self.profile_origins(),
                "hot_frames": [
                    {"frame": frame, "self": value, "fraction": fraction}
                    for frame, value, fraction in self.hot_frames()
                ],
            },
            # what each process's flight recorder reported evicting — not
            # what this aggregator retained
            "observability": {
                service: {
                    "dropped_spans": self.service_counter_total(service, "obs.dropped_spans")
                }
                for service in sorted(self._metrics)
            },
        }
