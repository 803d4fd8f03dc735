"""Orchestration for the baseline pub-sub system (mirror of P3SSystem).

Publishers and subscribers are plain JMS clients
(:class:`~repro.mq.client.JmsConnection`) on their simulator hosts, as
P3S's are: a subscriber listens on its interest's topic, a publisher
sends the payload as the body and the metadata as headers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..core.config import ComputeTimings
from ..mq.client import JmsConnection
from ..net.network import Network
from ..net.simulator import Simulator
from ..obs import hooks as obs
from ..pbe.schema import Interest
from .broker import BaselineBroker

__all__ = ["BaselineSystem", "BaselineSubscriber", "BaselinePublisher", "BaselineDelivery"]

# the topic publications are addressed to; the broker routes on headers
PUBLISH_TOPIC = "baseline"
# the header naming a publication, beside its metadata attributes
HDR_PUBLICATION_ID = "baseline-id"


@dataclass(frozen=True)
class BaselineDelivery:
    publication_id: int
    payload: bytes
    delivered_at: float


class _Client:
    """A JMS connection to the broker from a host of its own."""

    def __init__(self, system: "BaselineSystem", name: str):
        self.system = system
        self.name = name
        self.connection = JmsConnection(system.network.add_host(name), system.broker.name)
        self.connection.start()
        self.session = self.connection.create_session()


class BaselineSubscriber(_Client):
    """Registers plaintext interests; receives matching payloads."""

    def __init__(self, system: "BaselineSystem", name: str):
        super().__init__(system, name)
        self.deliveries: list[BaselineDelivery] = []

    def subscribe(self, interest: Interest) -> None:
        consumer = self.session.create_consumer(interest.to_json())
        consumer.set_message_listener(self._on_frame)

    def _on_frame(self, frame) -> None:
        publication_id = frame.headers[HDR_PUBLICATION_ID]
        self.deliveries.append(BaselineDelivery(publication_id, frame.body, self.system.sim.now))
        obs.end_span(
            obs.start_span(
                "deliver",
                component=self.name,
                parent=obs.extract(frame.headers),
                publication_id=publication_id,
                bytes=len(frame.body),
            )
        )


class BaselinePublisher(_Client):
    """Submits plaintext (metadata, payload) to the broker."""

    def __init__(self, system: "BaselineSystem", name: str):
        super().__init__(system, name)
        self.producer = self.session.create_producer(PUBLISH_TOPIC)

    def publish(self, metadata: dict[str, str], payload: bytes) -> int:
        publication_id = next(self.system.publication_ids)
        metadata_size = sum(len(k) + len(v) + 2 for k, v in metadata.items())
        with obs.span("publish", component=self.name, publication_id=publication_id) as span:
            headers = {**metadata, HDR_PUBLICATION_ID: publication_id}
            self.producer.send(
                payload, metadata_size + len(payload), headers=obs.inject(headers, span)
            )
        return publication_id


class BaselineSystem:
    """A broker plus any number of baseline publishers/subscribers."""

    def __init__(
        self,
        bandwidth_bps: float = 10_000_000,
        latency_s: float = 0.045,
        timings: ComputeTimings | None = None,
    ):
        self.sim = Simulator()
        self.network = Network(self.sim, default_bandwidth_bps=bandwidth_bps, latency_s=latency_s)
        self.broker = BaselineBroker(self.network.add_host("broker"), timings or ComputeTimings())
        self.broker.start()
        self.publication_ids = itertools.count(1)
        self.subscribers: dict[str, BaselineSubscriber] = {}

    def add_publisher(self, name: str) -> BaselinePublisher:
        return BaselinePublisher(self, name)

    def add_subscriber(self, name: str) -> BaselineSubscriber:
        subscriber = BaselineSubscriber(self, name)
        self.subscribers[name] = subscriber
        return subscriber

    def run(self, until: float | None = None) -> None:
        self.sim.run(until=until)

    def deliveries_for(self, publication_id: int) -> list[BaselineDelivery]:
        return [
            delivery
            for subscriber in self.subscribers.values()
            for delivery in subscriber.deliveries
            if delivery.publication_id == publication_id
        ]
