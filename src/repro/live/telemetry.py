"""The operational telemetry plane for live P3S deployments.

Every live service answers three admin RPCs over the same
:class:`~repro.live.rpc.LiveRpcEndpoint` substrate (and therefore the
same AEAD channels) as application traffic:

``KIND_HEALTH``
    Liveness + readiness: the trust root is loaded, the listener is
    bound, no dial-backoff loop is active, and service-specific warmth
    checks pass (DS match pool forked, RS garbage collector running).
``KIND_METRICS``
    A point-in-time snapshot of the service's metric series — the
    endpoint's transport gauges, service protocol counters, and the
    slice of the process-global observability registry attributed to
    this service's component — as structured JSON.  (The OpenMetrics
    text operators read is rendered from the aggregator's merged
    registry, ``repro live status --metrics-out``.)
``KIND_SPANS``
    A destructive drain of the flight recorder
    (:mod:`repro.obs.ring`): finished spans leave the process exactly
    once, open spans wait for the next poll, and the cumulative
    ``dropped_spans`` count rides along so truncation is never silent.
``KIND_PROFILE``
    A snapshot of the process's profile sampler
    (:mod:`repro.obs.prof`) as a profile dict — cumulative weighted
    stacks tagged with an ``origin`` token unique to the sampler, so
    the aggregator can replace rather than sum when four services of a
    single-process deployment all hand over the same profile.  Empty
    when no profiler is attached.

:class:`TelemetryClient` is the polling side: one client endpoint that
scrapes any set of services into a
:class:`~repro.obs.aggregate.TelemetryAggregator` — the engine under
``repro live status`` and ``repro live top``.

Telemetry responses are operational metadata (counts, booleans, span
timings) — never protocol ciphertext, tokens, or key material — so
exposing them over the authenticated channels adds no adversary
knowledge beyond what §6.1 already grants an honest-but-curious service
operator about their own process.
"""

from __future__ import annotations

import json
import time
from typing import Any, Iterable

from ..core.messages import KIND_HEALTH, KIND_METRICS, KIND_PROFILE, KIND_SPANS
from ..obs import hooks
from ..obs.aggregate import TelemetryAggregator
from .rpc import LiveRpcEndpoint

__all__ = [
    "GAUGE_METRICS",
    "install_telemetry",
    "service_health_snapshot",
    "service_metrics_snapshot",
    "drain_spans_snapshot",
    "profile_snapshot",
    "TelemetryClient",
]

# Counter-shaped series that are point-in-time values, not monotone
# totals — typed `gauge` in the OpenMetrics exposition.
GAUGE_METRICS = frozenset(
    {
        "live.rpc.open_connections",
        "live.rpc.in_flight_calls",
        "live.rpc.pending_high_water",
        "ds.subscribers",
        "ds.registered_tokens",
        "rs.stored_items",
        "store.recovery_s",
    }
)

# Bound per-series histogram samples in one snapshot; full count/sum
# still travel, only raw values are windowed.
MAX_HISTOGRAM_VALUES = 1024


def _endpoint_samples(endpoint: LiveRpcEndpoint) -> list[dict[str, Any]]:
    """The endpoint's transport gauges as counter-series entries."""
    stats = endpoint.stats()
    samples: list[dict[str, Any]] = [
        {"name": "live.rpc.open_connections", "labels": {}, "value": stats["open_connections"]},
        {"name": "live.rpc.in_flight_calls", "labels": {}, "value": stats["in_flight_calls"]},
        {"name": "live.rpc.pending_high_water", "labels": {}, "value": stats["pending_high_water"]},
        {"name": "live.rpc.reconnects", "labels": {}, "value": stats["reconnects"]},
    ]
    # names spelled out, not built: the signal inventory reads them off the source
    for peer, value in sorted(stats["tx_bytes"].items()):
        samples.append({"name": "live.net.tx_bytes", "labels": {"peer": peer}, "value": value})
    for peer, value in sorted(stats["rx_bytes"].items()):
        samples.append({"name": "live.net.rx_bytes", "labels": {"peer": peer}, "value": value})
    for peer, value in sorted(stats["rx_frames"].items()):
        samples.append({"name": "live.net.rx_frames", "labels": {"peer": peer}, "value": value})
    return samples


def service_health_snapshot(service) -> dict[str, Any]:
    """Liveness/readiness document for one live service.

    ``alive`` means "the process answered this RPC" (trivially true in
    the response); ``ready`` is the conjunction of every check —
    substrate checks here plus whatever the service adds via
    ``health_checks()``.
    """
    endpoint = service.endpoint
    server = getattr(endpoint, "_server", None)
    checks: dict[str, bool] = {
        "identity_loaded": endpoint.identity is not None,
        "trust_root_loaded": endpoint.ara_verify_key is not None,
        "listening": server is not None and server.is_serving(),
        "dial_backoff_quiet": not endpoint.dial_backoff_active,
    }
    extra = getattr(service, "health_checks", None)
    if callable(extra):
        checks.update(extra())
    return {
        "service": endpoint.name,
        "alive": True,
        "ready": all(checks.values()),
        "checks": checks,
        "time": time.time(),
    }


def service_metrics_snapshot(service) -> dict[str, Any]:
    """Point-in-time metric series for one live service.

    Three sources merge: the endpoint's transport gauges (always on),
    the service's own protocol counters (``extra_metrics()``), and —
    when an observability instance is installed — the slice of the
    process-global registry whose ``component`` label is this service,
    plus the flight recorder's drop count.  The component filter is
    what keeps a single-process deployment's per-service scrapes
    disjoint: summing them equals the global registry's totals for
    those components, with no double counting.
    """
    endpoint = service.endpoint
    name = endpoint.name
    counters = _endpoint_samples(endpoint)
    extra = getattr(service, "extra_metrics", None)
    if callable(extra):
        counters.extend(extra())
    histograms: list[dict[str, Any]] = []
    obs = hooks.active()
    if obs is not None:
        mine = lambda _n, labels: labels.get("component") == name  # noqa: E731
        counters.extend(obs.metrics.counter_series(where=mine))
        histograms.extend(
            obs.metrics.histogram_series(where=mine, max_values=MAX_HISTOGRAM_VALUES)
        )
        counters.append(
            {"name": "obs.dropped_spans", "labels": {}, "value": obs.tracer.dropped_spans}
        )
    return {
        "service": name,
        "time": time.time(),
        "counters": counters,
        "histograms": histograms,
    }


def drain_spans_snapshot(service) -> dict[str, Any]:
    """Drain the process flight recorder: each finished span leaves once.

    In a single-process deployment all services share one recorder, so
    whichever service a poller asks first hands over everything —
    the aggregator deduplicates by span identity, and nothing is lost
    or duplicated either way.
    """
    obs = hooks.active()
    if obs is None:
        return {"service": service.endpoint.name, "spans": [], "dropped_spans": 0}
    drained = obs.tracer.drain_finished()
    return {
        "service": service.endpoint.name,
        "spans": [span.to_dict() for span in drained],
        "dropped_spans": obs.tracer.dropped_spans,
    }


def profile_snapshot(service) -> dict[str, Any]:
    """The process profiler's cumulative profile, as a wire dict.

    Non-destructive (unlike the span drain): the profile is cumulative
    and carries its sampler's ``origin`` token, so the aggregator
    replaces the previous snapshot from the same origin instead of
    summing — repeated polls, or four services sharing one process-wide
    sampler, never inflate the weights.
    """
    profiler = hooks.active_profiler()
    if profiler is None:
        return {"service": service.endpoint.name, "profile": None}
    return {"service": service.endpoint.name, "profile": profiler.profile().to_dict()}


def install_telemetry(service) -> None:
    """Register the four telemetry handlers on a service's endpoint."""
    endpoint = service.endpoint

    def handle_health(src: str, message) -> tuple[str, int]:
        body = json.dumps(service_health_snapshot(service), default=str)
        return body, len(body)

    def handle_metrics(src: str, message) -> tuple[str, int]:
        body = json.dumps(service_metrics_snapshot(service), default=str)
        return body, len(body)

    def handle_spans(src: str, message) -> tuple[str, int]:
        body = json.dumps(drain_spans_snapshot(service), default=str)
        return body, len(body)

    def handle_profile(src: str, message) -> tuple[str, int]:
        body = json.dumps(profile_snapshot(service), default=str)
        return body, len(body)

    endpoint.serve(KIND_HEALTH, handle_health)
    endpoint.serve(KIND_METRICS, handle_metrics)
    endpoint.serve(KIND_SPANS, handle_spans)
    endpoint.serve(KIND_PROFILE, handle_profile)


class TelemetryClient:
    """Scrape health/metrics/spans from a set of live services."""

    def __init__(
        self,
        endpoint: LiveRpcEndpoint,
        services: Iterable[str],
        call_timeout_s: float = 10.0,
    ):
        self.endpoint = endpoint
        self.services = list(services)
        self.call_timeout_s = call_timeout_s

    async def health(self, service: str) -> dict[str, Any]:
        body = await self.endpoint.call(
            service, KIND_HEALTH, None, timeout_s=self.call_timeout_s
        )
        return json.loads(body)

    async def metrics(self, service: str) -> dict[str, Any]:
        body = await self.endpoint.call(
            service, KIND_METRICS, None, timeout_s=self.call_timeout_s
        )
        return json.loads(body)

    async def spans(self, service: str) -> dict[str, Any]:
        body = await self.endpoint.call(
            service, KIND_SPANS, None, timeout_s=self.call_timeout_s
        )
        return json.loads(body)

    async def profile(self, service: str) -> dict[str, Any]:
        body = await self.endpoint.call(
            service, KIND_PROFILE, None, timeout_s=self.call_timeout_s
        )
        return json.loads(body)

    async def scrape(
        self, aggregator: TelemetryAggregator | None = None
    ) -> TelemetryAggregator:
        """Poll every service (health, metrics, spans) into an aggregator.

        A service that cannot be reached is recorded dead
        (``alive=False``) rather than failing the scrape — ``status``
        must report a down deployment, not crash on one.
        """
        from ..errors import TransportError

        aggregator = aggregator or TelemetryAggregator()
        for service in self.services:
            try:
                aggregator.update_health(service, await self.health(service))
                aggregator.update_metrics(service, await self.metrics(service))
                drained = await self.spans(service)
                aggregator.add_spans(
                    service, drained.get("spans", []), drained.get("dropped_spans", 0)
                )
                profiled = await self.profile(service)
                if profiled.get("profile") is not None:
                    aggregator.add_profile(service, profiled["profile"])
            except TransportError:
                aggregator.update_health(
                    service,
                    {"service": service, "alive": False, "ready": False, "checks": {}},
                )
        return aggregator

    async def close(self) -> None:
        await self.endpoint.close()
