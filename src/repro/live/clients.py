"""Live publisher and subscriber clients.

:class:`repro.core.publisher.PublisherProtocol` and
:class:`repro.core.subscriber.SubscriberProtocol` — the classes the
simulator clients extend — over a
:class:`~repro.mq.client.JmsConnection` whose ports are
:class:`~repro.net.ports.LivePorts`.  Every rule is inherited: the §4.3
publication sequence, the Fig. 3 token request, local matching, the
Fig. 4 retrieval, and the JMS uplink beneath them (CONNECT/SUBSCRIBE on
every DS shard, PUBLISH, ACK on every delivery, acknowledged publish,
reconnect); ``start`` / ``publish`` / ``subscribe`` / ``unsubscribe``
return a coroutine to await.  What lives here is what only asyncio has:
waiting for a delivery count, and closing the sockets.
"""

from __future__ import annotations

import asyncio

from ..core.publisher import PublisherProtocol
from ..core.subscriber import Delivery, SubscriberProtocol
from ..errors import TransportError

__all__ = ["LivePublisher", "LiveSubscriber"]


class _LiveClient:
    async def close(self) -> None:
        await self.connection.endpoint.close()


class LivePublisher(_LiveClient, PublisherProtocol):
    """One P3S publisher on the live substrate."""


class LiveSubscriber(_LiveClient, SubscriberProtocol):
    """One P3S subscriber on the live substrate.

    The DS pushes ``jms.deliver`` frames back over the connection this
    subscriber opened; each one runs the shared match → retrieve →
    decrypt pipeline.
    """

    # loopback/LAN round trips, not the simulator's 45 ms WAN: retry
    # sooner, and more often
    RETRIEVAL_RETRIES = 10
    RETRY_DELAY_S = 0.05

    def __init__(self, credentials, connection, group, timings, **options):
        super().__init__(credentials, connection, group, timings, **options)
        self._delivery_event = asyncio.Event()

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
