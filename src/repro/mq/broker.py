"""A topic-based message broker — the ActiveMQ stand-in.

The paper's prototype builds the Dissemination Server "by extending the
AMQ broker" (§5); here :class:`repro.core.ds.DisseminationServer` extends
this class the same way.  Scope is the slice of JMS that P3S exercises:

* client connections (over the TLS-like channel layer),
* durable topic subscriptions,
* publish with fan-out to all current subscribers,
* per-message acknowledgements and delivery accounting.

The rules are written once, against a substrate ports object
(:mod:`repro.net.ports`): ``Broker(host)`` serves them on a simulator
host, and the live DS is the same class behind an asyncio listener
(:mod:`repro.live.services`).
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque

from ..errors import BrokerError, TransportError
from ..net.ports import ports_on
from ..obs import hooks as obs
from . import messages as frames
from .messages import JmsFrame

__all__ = ["Broker"]


class Broker:
    """The broker's rules, one handler per JMS frame type, served on
    ``ports`` (a simulator :class:`~repro.net.network.Host` stands for
    simulator ports on it).

    Subclasses may override :meth:`on_publish` (used by the P3S DS to
    split metadata fan-out from payload forwarding) and
    :meth:`on_connect`.
    """

    def __init__(self, ports):
        self.ports = ports_on(ports)
        self.subscriptions: dict[str, list[str]] = defaultdict(list)
        self.connected_clients: set[str] = set()
        self._message_ids = itertools.count(1)
        self.delivered_count = 0
        self.acked_count = 0
        self.published_count = 0
        self.duplicate_publishes = 0
        # bounded (src, seq) dedup window for acknowledged publishes: a
        # retransmitted PUBLISH whose PUBACK was lost must be re-acked
        # but not re-processed (at-least-once on the wire, exactly-once
        # at the broker)
        self._seen_pub_order: deque[tuple[str, int]] = deque(maxlen=1024)
        self._seen_pubs: set[tuple[str, int]] = set()
        self.crashed = False
        # unknown frames are dropped, as AMQ does for bad destinations
        for msg_type, handler in (
            (frames.CONNECT, self.on_connect),
            (frames.SUBSCRIBE, self._on_subscribe),
            (frames.PUBLISH, self._on_publish_frame),
            (frames.ACK, self._on_ack),
        ):
            self.ports.serve(msg_type, self._unless_crashed(handler))

    @property
    def name(self) -> str:
        return self.ports.name

    def start(self) -> None:
        self.ports.start()

    # -- frame handlers ---------------------------------------------------------

    def _unless_crashed(self, handler):
        def guarded(src: str, message):
            # a crashed broker loses in-flight frames
            return None if self.crashed else handler(src, message)

        return guarded

    def on_connect(self, src: str, message) -> None:
        self.connected_clients.add(src)

    def _on_subscribe(self, src: str, message) -> None:
        self._subscribe(src, message.payload.topic)

    def _on_ack(self, src: str, message) -> None:
        self.acked_count += 1

    def _on_publish_frame(self, src: str, message):
        frame = message.payload
        if not (yield from self._accept_publish(src, frame)):
            return
        self.published_count += 1
        yield from self.on_publish(src, frame)

    def on_publish(self, src: str, frame: JmsFrame):
        """What an accepted PUBLISH does: the DS matches and forwards it,
        the baseline broker filters it by its headers (a generator)."""
        raise NotImplementedError

    # -- reliable publish (PUBACK + dedup) ----------------------------------------

    def _accept_publish(self, src: str, frame: JmsFrame):
        """Ack a sequenced PUBLISH and decide whether to process it.

        Reads the sequence with ``get`` — never ``pop`` — because the
        simulator passes the *same frame object* on every client
        retransmission; mutating it here would strip the header from
        the client's future retries.
        """
        seq = frame.headers.get(frames.HDR_PUB_SEQ)
        if seq is None:
            return True  # legacy fire-and-forget publish
        yield self.ports.cast(src, frames.PUBACK, JmsFrame(message_id=seq), 32)
        key = (src, seq)
        if key in self._seen_pubs:
            self.duplicate_publishes += 1
            return False
        if len(self._seen_pub_order) == self._seen_pub_order.maxlen:
            self._seen_pubs.discard(self._seen_pub_order[0])
        self._seen_pub_order.append(key)
        self._seen_pubs.add(key)
        return True

    @staticmethod
    def delivery_headers(frame: JmsFrame) -> dict:
        """Header copy for delivery frames, transport bookkeeping stripped."""
        return {k: v for k, v in frame.headers.items() if k != frames.HDR_PUB_SEQ}

    # -- primitives ------------------------------------------------------------------

    def _subscribe(self, client: str, topic: str) -> None:
        if client not in self.connected_clients:
            raise BrokerError(f"subscribe from unconnected client {client!r}")
        if client not in self.subscriptions[topic]:
            self.subscriptions[topic].append(client)

    def delivery_frame(self, topic: str, frame: JmsFrame) -> JmsFrame:
        return JmsFrame(
            topic=topic,
            body=frame.body,
            body_size=frame.body_size,
            message_id=next(self._message_ids),
            headers=self.delivery_headers(frame),
        )

    def fan_out(self, topic: str, frame: JmsFrame):
        """Deliver ``frame`` to every subscriber of ``topic``."""
        delivery = self.delivery_frame(topic, frame)
        # a copy: the table may change while a delivery is in flight
        for client in list(self.subscriptions[topic]):
            yield from self.deliver_to(client, delivery)

    def deliver_to(self, client: str, frame: JmsFrame):
        try:
            yield self.ports.cast(client, frames.DELIVER, frame, frame.wire_size)
            self.delivered_count += 1
        except TransportError:
            # the subscriber's connection is gone: the broker loses the
            # frame, as it does to any disconnected client
            obs.record_op("ds.delivery_dropped")

    def subscriber_count(self, topic: str) -> int:
        return len(self.subscriptions[topic])

    # -- crash / restart (paper §6.1 robustness discussion) --------------------

    def crash(self) -> None:
        """Simulate a broker crash: drop frames, forget volatile state."""
        self.crashed = True
        self.subscriptions.clear()
        self.connected_clients.clear()
        # the dedup window is volatile too: a retransmission accepted
        # twice across a crash is at-least-once, which the subscriber's
        # GUID dedup absorbs
        self._seen_pub_order.clear()
        self._seen_pubs.clear()

    def restart(self) -> None:
        """Come back up; "a restarted DS needs to wait for subscribers and
        publishers to (re)register" (§6.1)."""
        self.crashed = False
