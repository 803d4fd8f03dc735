"""Live publisher and subscriber clients.

These are the TCP shells around
:class:`repro.core.publisher.PublisherProtocol` and
:class:`repro.core.subscriber.SubscriberProtocol` — the same classes the
simulator clients extend.  The §4.3 publication sequence, the Fig. 3
token request, local matching and the Fig. 4 retrieval are written once,
there, as generators over substrate ports (:mod:`repro.net.ports`);
``publish`` / ``subscribe`` / ``unsubscribe`` are inherited and return a
coroutine to await.  What lives here is the live JMS uplink the
simulator gets from :mod:`repro.mq.client` — CONNECT/SUBSCRIBE on every
DS shard, one PUBLISH frame per send, ACK on every delivery — plus
``wait_for_deliveries`` and shutdown, so a live deployment delivers
exactly what a simulated one delivers for the same scenario.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable

from ..cluster.router import ds_shards_of
from ..core.ara import PublisherCredentials, SubscriberCredentials
from ..core.config import ComputeTimings
from ..core.publisher import PublisherProtocol
from ..core.subscriber import Delivery, SubscriberProtocol
from ..crypto.group import PairingGroup
from ..errors import TransportError
from ..mq import messages as frames
from ..mq.messages import JmsFrame
from ..net.ports import LivePorts
from ..obs import profile as obs
from .rpc import LiveRpcEndpoint

__all__ = ["LivePublisher", "LiveSubscriber"]


class _LiveJmsClient:
    """The slice of a JMS client connection both live clients need."""

    endpoint: LiveRpcEndpoint
    _topic: str  # what this client's own PUBLISH frames are addressed to

    @property
    def broker_names(self) -> tuple[str, ...]:
        """Every DS shard: publications hash to one, so a client must
        be connected (and a subscriber listening) everywhere."""
        return ds_shards_of(self.directory)

    async def connect(self) -> None:
        """Open the live channel to every DS shard (JMS CONNECT)."""
        for ds_name in self.broker_names:
            await self.endpoint.cast(ds_name, frames.CONNECT, JmsFrame(topic=""))

    def _send_to_ds(self, body, body_size: int, headers: dict, broker: str):
        frame = JmsFrame(topic=self._topic, body=body, body_size=body_size, headers=headers)
        return self.endpoint.cast(broker, frames.PUBLISH, frame)

    async def close(self) -> None:
        await self.endpoint.close()


class LivePublisher(_LiveJmsClient, PublisherProtocol):
    """One P3S publisher speaking the live JMS dialect to the DS."""

    def __init__(
        self,
        credentials: PublisherCredentials,
        endpoint: LiveRpcEndpoint,
        group: PairingGroup,
        guid_bytes: int = 16,
        publish_topic: str = "p3s.publish",
        clock: Callable[[], float] = time.monotonic,
    ):
        PublisherProtocol.__init__(
            self,
            credentials,
            LivePorts(endpoint, clock),
            group,
            ComputeTimings(),
            guid_bytes,
            publish_topic,
        )
        self.endpoint = endpoint
        self._topic = publish_topic


class LiveSubscriber(_LiveJmsClient, SubscriberProtocol):
    """One P3S subscriber endpoint on the live substrate.

    The DS pushes ``jms.deliver`` frames back over the connection this
    subscriber opened; each one runs the shared match → retrieve →
    decrypt pipeline.
    """

    def __init__(
        self,
        credentials: SubscriberCredentials,
        endpoint: LiveRpcEndpoint,
        group: PairingGroup,
        clock: Callable[[], float] = time.monotonic,
        **options,
    ):
        # loopback/LAN round trips, not the simulator's 45 ms WAN
        options.setdefault("retry_delay_s", 0.05)
        SubscriberProtocol.__init__(
            self, credentials, LivePorts(endpoint, clock), group, ComputeTimings(), **options
        )
        self.endpoint = endpoint
        self._topic = self.metadata_topic
        self._delivery_event = asyncio.Event()
        endpoint.serve(frames.DELIVER, self._on_frame)

    async def connect(self) -> None:
        """JMS CONNECT, then SUBSCRIBE to the metadata topic, on every
        DS shard."""
        await super().connect()
        for ds_name in self.broker_names:
            await self.endpoint.cast(
                ds_name, frames.SUBSCRIBE, JmsFrame(topic=self.metadata_topic)
            )

    async def _on_frame(self, src: str, message) -> None:
        frame: JmsFrame = message.payload
        if frame.topic != self.metadata_topic:
            return
        # ACK on receipt, mirroring the simulator consumer
        # (mq.client.MessageConsumer): the DS's delivered/acked counters
        # are the publish-ack SLO signal
        await self.endpoint.cast(
            src, frames.ACK, JmsFrame(message_id=frame.message_id)
        )
        await self.ports.drive(
            self._match_process(frame.body, obs.extract(frame.headers))
        )

    def _hand_over(self, delivery: Delivery) -> None:
        self._delivery_event.set()
        super()._hand_over(delivery)

    async def wait_for_deliveries(self, count: int, timeout_s: float = 30.0) -> None:
        """Block until this subscriber has at least ``count`` deliveries."""
        deadline = asyncio.get_running_loop().time() + timeout_s
        while True:
            # clear-then-check: a delivery landing in between re-sets the
            # event, so the wait below returns immediately
            self._delivery_event.clear()
            if len(self.stats.deliveries) >= count:
                return
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                raise TransportError(
                    f"{self.name}: only {len(self.stats.deliveries)}/{count} "
                    f"deliveries after {timeout_s}s"
                )
            try:
                await asyncio.wait_for(self._delivery_event.wait(), remaining)
            except asyncio.TimeoutError:
                pass
