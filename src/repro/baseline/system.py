"""Orchestration for the baseline pub-sub system (mirror of P3SSystem)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..core.config import ComputeTimings
from ..net.channel import SecureChannelLayer
from ..net.network import Network
from ..net.simulator import Simulator
from ..obs import hooks as obs_hooks
from ..pbe.schema import Interest
from .broker import MSG_DELIVER, MSG_PUBLISH, MSG_SUBSCRIBE, BaselineBroker, BaselinePublication

__all__ = ["BaselineSystem", "BaselineSubscriber", "BaselinePublisher", "BaselineDelivery"]


@dataclass(frozen=True)
class BaselineDelivery:
    publication_id: int
    payload: bytes
    delivered_at: float


@dataclass
class _SubscriberState:
    name: str
    channel: SecureChannelLayer
    deliveries: list[BaselineDelivery] = field(default_factory=list)


class BaselineSubscriber:
    """Registers plaintext interests; receives matching payloads."""

    def __init__(self, system: "BaselineSystem", name: str):
        self.system = system
        self.name = name
        self.channel = SecureChannelLayer(system.network.add_host(name))
        self.deliveries: list[BaselineDelivery] = []
        system.sim.process(self._receive_loop())

    def subscribe(self, interest: Interest) -> None:
        # interest size on the wire: its JSON form
        self.channel.send(
            self.system.broker.name, MSG_SUBSCRIBE, interest, len(interest.to_json())
        )

    def _receive_loop(self):
        while True:
            _, message = yield self.channel.receive()
            if message.msg_type != MSG_DELIVER:
                continue
            publication: BaselinePublication = message.payload
            self.deliveries.append(
                BaselineDelivery(
                    publication_id=publication.publication_id,
                    payload=publication.payload,
                    delivered_at=self.system.sim.now,
                )
            )
            obs_hooks.end_span(
                obs_hooks.start_span(
                    "deliver",
                    component=self.name,
                    parent=obs_hooks.extract(message.headers),
                    publication_id=publication.publication_id,
                    bytes=len(publication.payload),
                )
            )


class BaselinePublisher:
    """Submits plaintext (metadata, payload) to the broker."""

    _ids = itertools.count(1)

    def __init__(self, system: "BaselineSystem", name: str):
        self.system = system
        self.name = name
        self.channel = SecureChannelLayer(system.network.add_host(name))
        self.published: list[tuple[int, float]] = []  # (publication_id, submitted_at)

    def publish(self, metadata: dict[str, str], payload: bytes) -> int:
        publication = BaselinePublication(
            publication_id=next(self._ids), metadata=dict(metadata), payload=payload
        )
        self.published.append((publication.publication_id, self.system.sim.now))
        with obs_hooks.span(
            "publish",
            component=self.name,
            publication_id=publication.publication_id,
        ) as span:
            self.channel.send(
                self.system.broker.name,
                MSG_PUBLISH,
                publication,
                publication.wire_size,
                headers=obs_hooks.inject({}, span),
            )
        return publication.publication_id


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
        self.timings = timings or ComputeTimings()
        self.broker = BaselineBroker(self.network.add_host("broker"), self.timings)
        self.broker.start()
        self.publishers: dict[str, BaselinePublisher] = {}
        self.subscribers: dict[str, BaselineSubscriber] = {}

    def add_publisher(self, name: str) -> BaselinePublisher:
        publisher = BaselinePublisher(self, name)
        self.publishers[name] = publisher
        return publisher

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
