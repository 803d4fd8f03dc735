"""Merge per-service telemetry snapshots into one deployment-wide view.

A live P3S deployment is four services (and any number of clients), each
answering the telemetry request (:mod:`repro.live.telemetry`) with one
snapshot: health, metric series, drained spans and profile.  The
:class:`TelemetryAggregator` is the substrate-free half of that plane:
:meth:`~TelemetryAggregator.ingest` accepts plain snapshot dicts —
whatever JSON came off the wire — and maintains

* a **merged metrics registry**: every service's counters and histograms
  under a ``service`` label, rebuilt from the latest snapshot per
  service so repeated polls replace rather than double-count;
* a **reassembled span store**: spans from every scrape deduplicated by
  ``(trace_id, span_id)``, from which cross-socket publish→deliver trees
  are put back together and end-to-end latencies computed;
* the **process-wide signals** — the profile and the flight recorder's
  drop count — kept as the latest value per *origin* token, so a
  single-process deployment whose four services all hand over the same
  process's values counts them once while four real processes sum (the
  hot-frames panel of ``repro live top`` and ``repro prof top`` read the
  merged profile);
* the **health table** behind ``repro live status`` / ``repro live top``.

Nothing here imports asyncio or sockets — the aggregator is equally
happy fed by the live telemetry client, by a test constructing snapshot
dicts by hand, or by an offline tool replaying scraped JSON.
"""

from __future__ import annotations

from collections import OrderedDict

from ..errors import ProfileError
from .export import format_op_summary
from .metrics import Histogram, MetricsRegistry

__all__ = ["TelemetryAggregator", "SPAN_TABLE_CAPACITY"]

SERVICE_LABEL = "service"
# what of a snapshot is its service's health document
HEALTH_FIELDS = ("service", "alive", "ready", "checks", "time")

# Span-dedup table bound: a `live top` left running for a week must not
# grow without limit, so the table is an LRU over span identity — the
# oldest-touched entries are evicted first and the eviction count is
# exported (truncation is never silent).
SPAN_TABLE_CAPACITY = 8192


class TelemetryAggregator:
    """Deployment-wide merge of per-service telemetry snapshots."""

    def __init__(self, latency_window: int = 256):
        self.latency_window = latency_window
        self._health: dict[str, dict] = {}
        self._metrics: dict[str, dict] = {}
        # (signal, origin) -> (reporting services, latest value): what a
        # process reports through every service it hosts, kept once
        self._per_origin: dict[tuple[str, str], tuple[set[str], object]] = {}
        # (trace_id, span_id) -> span dict; finished spans win over open
        # ones; LRU-ordered so the bound evicts the least recently seen
        self._spans: OrderedDict[tuple[int, int], dict] = OrderedDict()
        self.span_evictions = 0

    # -- feeding ---------------------------------------------------------------

    def ingest(self, snapshot: dict) -> None:
        """Fold in one service's telemetry snapshot.

        * Health and metrics are point-in-time totals: a service's latest
          snapshot *replaces* its previous one, so polling twice never
          doubles a counter.  A snapshot without ``counters`` (a service
          that could not be reached) replaces its health only.
        * Spans were drained, so they accumulate.  In a single-process
          deployment every service drains the same flight recorder, and
          ``(trace_id, span_id)`` identity keeps exactly one copy.
        * The profile and the ``obs.dropped_spans`` count are cumulative
          and process-wide: every service of one process hands over the
          same value.  Each is kept as the latest value per origin — the
          profile's sampler token, the snapshot's process token — and
          distinct origins sum.  The profile is decoded first: a malformed
          one raises :class:`~repro.errors.ProfileError` naming the service
          before anything of the snapshot is folded in.
        """
        service = snapshot["service"]
        if snapshot.get("profile") is not None:
            from .prof.model import Profile  # lazy: prof pulls in the crypto stack

            try:
                profile = Profile.from_dict(snapshot["profile"])
            except ProfileError as exc:
                raise ProfileError(f"service {service!r} sent a malformed profile: {exc}") from None
            self._keep_latest("profile", profile.origin, service, profile)
        self._health[service] = {
            field: snapshot[field] for field in HEALTH_FIELDS if field in snapshot
        }
        if "counters" in snapshot:
            counters = snapshot["counters"]
            self._metrics[service] = {
                "counters": counters,
                "histograms": snapshot.get("histograms", []),
            }
            dropped = sum(
                entry.get("value", 0) for entry in counters if entry["name"] == "obs.dropped_spans"
            )
            self._keep_latest("dropped_spans", snapshot.get("origin", service), service, dropped)
        for span in snapshot.get("spans", ()):
            key = (span.get("trace_id"), span.get("span_id"))
            existing = self._spans.get(key)
            if existing is None or (existing.get("end_s") is None and span.get("end_s") is not None):
                self._spans[key] = span
            self._spans.move_to_end(key)
        while len(self._spans) > SPAN_TABLE_CAPACITY:
            self._spans.popitem(last=False)
            self.span_evictions += 1

    def _keep_latest(self, signal: str, origin: str, service: str, value) -> None:
        services, _ = self._per_origin.get((signal, origin), (set(), None))
        services.add(service)
        self._per_origin[(signal, origin)] = (services, value)

    def _origins(self, signal: str) -> dict[str, tuple[set[str], object]]:
        """``origin -> (reporting services, latest value)`` of one signal."""
        return {
            origin: entry
            for (name, origin), entry in sorted(self._per_origin.items())
            if name == signal
        }

    @property
    def total_dropped_spans(self) -> int:
        """Spans the flight recorders evicted: each origin's latest count,
        summed over origins."""
        return sum(dropped for _services, dropped in self._origins("dropped_spans").values())

    # -- health ----------------------------------------------------------------

    def services(self) -> list[str]:
        return sorted(self._health)

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
        sharing an origin were already collapsed by :meth:`ingest`.
        Empty profile when nothing was exported.
        """
        from .prof.model import Profile  # lazy: prof pulls in the crypto stack

        merged = Profile(mode="wall", origin="merged")
        modes: set[str] = set()
        for origin, (services, part) in self._origins("profile").items():
            modes.add(part.mode)
            merged.merge(part)
            merged.meta[f"origin:{origin}"] = ",".join(sorted(services))
        if len(modes) == 1:
            merged.mode = modes.pop()
        return merged

    def profile_origins(self) -> dict[str, list[str]]:
        """Which services reported each profile origin (dedup evidence)."""
        return {
            origin: sorted(services) for origin, (services, _) in self._origins("profile").items()
        }

    def hot_frames(self, limit: int = 10) -> list[tuple[str, float, float]]:
        """Top frames by self weight: ``(frame, self, fraction)`` rows.

        Weighted as the merged profile's mode implies
        (:attr:`~repro.obs.prof.model.Profile.weight_key`).
        """
        profile = self.merged_profile()
        if not profile.samples:
            return []
        weight_key = profile.weight_key
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
