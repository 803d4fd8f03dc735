"""Experiment metrics: per-publication lifecycle and aggregate statistics.

:class:`MetricsCollector` turns a finished :class:`~repro.core.system.P3SSystem`
run into the quantities the evaluation reports: per-publication delivery
latencies (submit → application delivery, per matching subscriber),
distribution statistics (mean/median/p95/max), achieved throughput over a
window, and per-component byte counters.  ``to_csv`` exports the raw
timeline for offline analysis.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from ..obs.metrics import nearest_rank
from .publisher import PublicationRecord
from .system import P3SSystem

__all__ = ["LatencyStats", "PublicationMetrics", "MetricsCollector"]


@dataclass(frozen=True)
class LatencyStats:
    """Distribution summary over a set of latencies (seconds)."""

    count: int
    mean: float
    median: float
    p95: float
    p99: float
    maximum: float

    @classmethod
    def from_values(cls, values: list[float]) -> "LatencyStats":
        if not values:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(values)
        return cls(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            median=nearest_rank(ordered, 0.5),
            p95=nearest_rank(ordered, 0.95),
            p99=nearest_rank(ordered, 0.99),
            maximum=ordered[-1],
        )


@dataclass(frozen=True)
class PublicationMetrics:
    """Everything measured about one publication."""

    publication_id: int
    publisher: str
    submitted_at: float
    metadata_bytes: int
    payload_bytes: int
    deliveries: int
    latencies: tuple[float, ...]

    @property
    def worst_latency(self) -> float:
        return max(self.latencies) if self.latencies else float("nan")


class MetricsCollector:
    """Aggregate view over a system's publications and deliveries."""

    def __init__(self, system: P3SSystem):
        self.system = system

    # -- per-publication --------------------------------------------------------

    def publication_metrics(self) -> list[PublicationMetrics]:
        result = []
        for publisher in self.system.publishers.values():
            for record in publisher.published:
                latencies = tuple(self.system.delivery_latencies(record))
                result.append(
                    PublicationMetrics(
                        publication_id=record.publication_id,
                        publisher=publisher.name,
                        submitted_at=record.submitted_at,
                        metadata_bytes=record.metadata_bytes,
                        payload_bytes=record.payload_bytes,
                        deliveries=len(latencies),
                        latencies=latencies,
                    )
                )
        return sorted(result, key=lambda m: m.publication_id)

    def _record_for(self, publication_id: int) -> PublicationRecord | None:
        for publisher in self.system.publishers.values():
            for record in publisher.published:
                if record.publication_id == publication_id:
                    return record
        return None

    # -- aggregates ---------------------------------------------------------------

    def latency_stats(self) -> LatencyStats:
        """Across all deliveries of all publications."""
        values = [
            latency for metrics in self.publication_metrics() for latency in metrics.latencies
        ]
        return LatencyStats.from_values(values)

    def worst_case_latency_stats(self) -> LatencyStats:
        """Across publications, using each one's slowest delivery
        (the quantity the paper's latency model bounds)."""
        values = [
            metrics.worst_latency
            for metrics in self.publication_metrics()
            if metrics.deliveries
        ]
        return LatencyStats.from_values(values)

    def achieved_throughput(self) -> float:
        """Publications fully delivered per simulated second."""
        metrics = [m for m in self.publication_metrics() if m.deliveries]
        if len(metrics) < 2:
            return 0.0
        first = min(m.submitted_at for m in metrics)
        last_delivery = max(m.submitted_at + m.worst_latency for m in metrics)
        if last_delivery <= first:
            return 0.0
        return len(metrics) / (last_delivery - first)

    def delivery_ratio(self) -> float:
        """Delivered / expected, where expected = matches across subscribers."""
        expected = sum(s.stats.matches for s in self.system.subscribers.values())
        delivered = sum(len(s.stats.deliveries) for s in self.system.subscribers.values())
        return 1.0 if expected == 0 else delivered / expected

    def component_bytes(self) -> dict[str, tuple[int, int]]:
        """Per-host (sent, received) byte counters — the bandwidth story.

        When the system runs with an :class:`repro.obs.Observability`
        instance installed, the counters come from the ``net.bytes``
        metric registry (one source of truth for the wire accounting);
        otherwise they fall back to the per-host counters.
        """
        if self.system.obs is not None and not self.system.obs.metrics.empty:
            registry = self.system.obs.metrics
            sent = registry.counters_by_label("net.bytes", "src")
            received = registry.counters_by_label("net.bytes", "dst")
            return {
                name: (int(sent.get(name, 0)), int(received.get(name, 0)))
                for name in self.system.network.hosts
            }
        return {
            name: (host.bytes_sent, host.bytes_received)
            for name, host in self.system.network.hosts.items()
        }

    def crypto_op_counts(self) -> dict[str, int]:
        """Total crypto-operation counters (``op.*``) from the registry.

        Empty when the system runs without observability installed.
        """
        if self.system.obs is None:
            return {}
        return {
            name: self.system.obs.metrics.counter_total(name)
            for name in self.system.obs.metrics.counter_names()
            if name.startswith("op.")
        }

    # -- export --------------------------------------------------------------------

    def to_csv(self) -> str:
        """Raw per-delivery rows: publication, subscriber, latency, sizes."""
        buffer = io.StringIO()
        buffer.write("publication_id,publisher,subscriber,latency_s,metadata_bytes,payload_bytes\n")
        for metrics in self.publication_metrics():
            record = self._record_for(metrics.publication_id)
            for subscriber in self.system.subscribers.values():
                for delivery in subscriber.stats.deliveries:
                    if record is not None and delivery.guid == record.guid:
                        latency = delivery.delivered_at - record.submitted_at
                        buffer.write(
                            f"{metrics.publication_id},{metrics.publisher},"
                            f"{subscriber.name},{latency:.6f},"
                            f"{metrics.metadata_bytes},{metrics.payload_bytes}\n"
                        )
        return buffer.getvalue()
