"""The operational telemetry plane for live P3S deployments.

Every live service answers one admin request, ``KIND_TELEMETRY``, over
the same :class:`~repro.live.rpc.LiveRpcEndpoint` substrate (and
therefore the same AEAD channels) as application traffic.  The answer is
one snapshot document (:func:`telemetry_snapshot`):

``service``, ``time``, ``origin``
    The answering service, its wall clock, and :data:`ORIGIN` — a token
    unique to the process, so the aggregator can tell four services of
    one process from four processes.
``alive``, ``ready``, ``checks``
    Liveness + readiness: the trust root is loaded, the listener is
    bound, no dial-backoff loop is active, and service-specific warmth
    checks pass (DS match pool forked, RS garbage collector running).
``counters``, ``histograms``
    The endpoint's transport gauges, the service's protocol counters,
    and the slice of the process-global observability registry
    attributed to this service's component — plus ``obs.dropped_spans``,
    the flight recorder's cumulative eviction count.
``spans``
    A destructive drain of the flight recorder (:mod:`repro.obs.ring`):
    finished spans leave the process exactly once; open spans wait for
    the next request.
``profile``
    The process profiler's cumulative profile (:mod:`repro.obs.prof`),
    or ``None`` when no profiler is attached.

A process-wide signal (the drop count, the profile) is the same in the
snapshot of every service its process hosts; the
:class:`~repro.obs.aggregate.TelemetryAggregator` keeps it once per
origin.

**Only the operator may ask.**  A snapshot is not harmless: its spans
name the subscribers a DS delivered to and whose retrieval was denied,
its per-peer byte counts show who talks to whom, and the drain is
destructive, so a peer that could ask would also blind the operator.
Channels authenticate the server only — a client's name is a claim — so
the request carries the ARA's signature over :data:`TELEMETRY_CONTEXT`
and the target service's name
(:meth:`~repro.core.ara.RegistrationAuthority.sign_telemetry_request`),
which the service checks with the ARA verify key it already holds.  An
unsigned or mis-bound request breaks a rule like any refused frame: it
is counted as ``op.rpc.frame_rejected`` and gets no reply.

:class:`TelemetryClient` is the operator's side: one request per
service per sweep, folded into an aggregator — the engine under
``repro live status``, ``live top``, ``slo report|watch`` and ``prof
top``.
"""

from __future__ import annotations

import json
import time
from typing import Any, Iterable

from ..core.ara import TELEMETRY_CONTEXT
from ..core.messages import KIND_TELEMETRY
from ..crypto.randomness import draw_bytes
from ..crypto.signing import Signature
from ..errors import CertificateError, TransportError
from ..obs import hooks
from ..obs.aggregate import TelemetryAggregator
from .rpc import LiveRpcEndpoint

__all__ = [
    "GAUGE_METRICS",
    "ORIGIN",
    "install_telemetry",
    "telemetry_snapshot",
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

# this process's identity in every snapshot it hands over
ORIGIN = draw_bytes("pseudonym", 8).hex()


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


def telemetry_snapshot(service) -> dict[str, Any]:
    """One live service's telemetry, as the document this module describes.

    ``ready`` is the conjunction of every check — substrate checks here
    plus the service's ``health_checks()``.  The registry slice is the
    series whose ``component`` label is this service: that filter keeps
    a single-process deployment's per-service snapshots disjoint, so
    summing them equals the process registry's totals for those
    components.  In such a deployment all services share one flight
    recorder, so whichever is asked first hands over every finished
    span; the aggregator deduplicates by span identity either way.
    """
    endpoint = service.endpoint
    name = endpoint.name
    server = endpoint._server
    checks: dict[str, bool] = {
        "identity_loaded": endpoint.identity is not None,
        "trust_root_loaded": endpoint.ara_verify_key is not None,
        "listening": server is not None and server.is_serving(),
        "dial_backoff_quiet": not endpoint.dial_backoff_active,
    }
    checks.update(service.health_checks())
    counters = _endpoint_samples(endpoint) + service.extra_metrics()
    histograms: list[dict[str, Any]] = []
    spans: list[dict[str, Any]] = []
    obs = hooks.active()
    if obs is not None:
        mine = lambda _n, labels: labels.get("component") == name  # noqa: E731
        counters.extend(obs.metrics.counter_series(where=mine))
        histograms = obs.metrics.histogram_series(where=mine, max_values=MAX_HISTOGRAM_VALUES)
        counters.append(
            {"name": "obs.dropped_spans", "labels": {}, "value": obs.tracer.dropped_spans}
        )
        spans = [span.to_dict() for span in obs.tracer.drain_finished()]
    profiler = hooks.active_profiler()
    return {
        "service": name,
        "origin": ORIGIN,
        "time": time.time(),
        "alive": True,
        "ready": all(checks.values()),
        "checks": checks,
        "counters": counters,
        "histograms": histograms,
        "spans": spans,
        "profile": None if profiler is None else profiler.profile().to_dict(),
    }


def install_telemetry(service) -> None:
    """Serve ``KIND_TELEMETRY`` on a service's endpoint, to the operator only."""
    endpoint = service.endpoint
    statement = TELEMETRY_CONTEXT + endpoint.name.encode("utf-8")

    def handle(src: str, message) -> tuple[str, int]:
        verify_key = endpoint.ara_verify_key
        if verify_key is None or not isinstance(message.payload, bytes):
            raise CertificateError(f"{src}: telemetry request carries no ARA signature")
        signature = Signature.from_bytes(message.payload, verify_key.group)
        if not verify_key.verify(statement, signature):
            raise CertificateError(f"{src}: telemetry request not signed for {endpoint.name}")
        body = json.dumps(telemetry_snapshot(service), default=str)
        return body, len(body)

    endpoint.serve(KIND_TELEMETRY, handle)


class TelemetryClient:
    """The operator's poller: one signed snapshot request per service."""

    def __init__(self, endpoint: LiveRpcEndpoint, services: Iterable[str], ara):
        self.endpoint = endpoint
        self.services = list(services)
        self.ara = ara  # the trust root: what makes this client the operator

    async def snapshot(self, service: str) -> dict[str, Any]:
        request = self.ara.sign_telemetry_request(service).to_bytes(self.ara.group.zr_bytes)
        body = await self.endpoint.call(service, KIND_TELEMETRY, request, timeout_s=10.0)
        return json.loads(body)

    async def scrape(
        self, aggregator: TelemetryAggregator | None = None
    ) -> TelemetryAggregator:
        """Ask every service once and fold the answers into an aggregator.

        A service that cannot be reached is recorded dead
        (``alive=False``) rather than failing the scrape — ``status``
        must report a down deployment, not crash on one.
        """
        aggregator = aggregator or TelemetryAggregator()
        for service in self.services:
            try:
                aggregator.ingest(await self.snapshot(service))
            except TransportError:
                aggregator.ingest(
                    {"service": service, "alive": False, "ready": False, "checks": {}}
                )
        return aggregator

    async def close(self) -> None:
        await self.endpoint.close()
