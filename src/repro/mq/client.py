"""JMS-flavoured client API for the mini broker.

The paper keeps "the top level JMS interface, so that existing JMS
compliant publishers and subscribers can take advantage of P3S's privacy
preserving properties without code change" (§5).  This module provides
that JMS-shaped surface — connection / session / producer / consumer with
message listeners — and the P3S client libraries in :mod:`repro.core`
plug in beneath it.

Every client rule — CONNECT, SUBSCRIBE fan-out, ACK to the deliverer,
publish, acknowledged publish, reconnect — is written once, as a body
over a substrate ports object (:mod:`repro.net.ports`): a simulator
host stands for simulator ports on it, a live client passes
:class:`~repro.net.ports.LivePorts`.  Whatever sends frames returns what
``ports.finish`` returns: nothing on the simulator (the frames are on
the wire already), an awaitable on asyncio.

A connection rides on an RPC endpoint rather than owning the host's
inbox: P3S clients multiplex JMS deliveries (encrypted metadata) and
request-response traffic (token requests, retrievals) over the same
host, exactly as the prototype multiplexes JMS and web-service calls.

Two extensions beyond the classic JMS slice:

* **multi-broker connections** — one connection may span several brokers
  (the sharded DS cluster of :mod:`repro.cluster`).  Deliveries from any
  of them arrive through the single DELIVER handler (an endpoint can
  register each msg_type only once), SUBSCRIBE fans to every broker, and
  ACKs return to whichever broker delivered the frame.
* **reliable publish** — ``producer.send(..., reliable=True)`` attaches
  a per-connection sequence header, waits for the broker's PUBACK, and
  retransmits with bounded exponential backoff on silence.  Jitter is
  derived from stable identifiers (SHA-256 of client/broker/seq), never
  ambient entropy, so chaos runs stay seed-replayable.  The broker
  dedups on (client, seq), making the upgrade at-least-once on the wire
  and exactly-once at the broker — this closes the documented
  unretried-publish gap in docs/CHAOS.md.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Any, Callable, Iterable

from ..errors import BrokerError, TransportError
from ..net.ports import ports_on
from . import messages as frames
from .messages import JmsFrame

__all__ = ["JmsConnection", "JmsSession", "MessageProducer", "MessageConsumer"]

# reliable publish: retransmissions after the first send, the wait for a
# PUBACK, and the first backoff (doubling, plus as much again in jitter)
PUBLISH_RETRIES = 4
PUBACK_TIMEOUT_S = 1.0
PUBLISH_BACKOFF_S = 0.2


def _jitter_rng(*parts: Any) -> random.Random:
    """Deterministic per-(client, broker, seq, attempt) jitter source."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class JmsConnection:
    """A client's connection to one broker — or to a shard set of them —
    over ``ports`` (a simulator :class:`~repro.net.network.Host` stands
    for simulator ports on it).

    ``broker_name`` may be a single name or a sequence; the first entry
    stays available as :attr:`broker_name` (the classic single-broker
    attribute, used as the default publish target).
    """

    def __init__(self, ports, broker_name: str | Iterable[str]):
        names = (broker_name,) if isinstance(broker_name, str) else tuple(broker_name)
        if not names:
            raise BrokerError("connection needs at least one broker")
        self.ports = ports_on(ports)
        self.broker_names: list[str] = list(dict.fromkeys(names))
        self.broker_name = self.broker_names[0]
        self._listeners: dict[str, list[Callable]] = {}
        self._pub_seq = itertools.count(1)
        self._pending_acks: dict[tuple[str, int], Callable] = {}  # -> complete()
        self.publish_retransmits = 0
        self.publish_failures = 0
        self._started = False

    @property
    def endpoint(self):
        return self.ports.endpoint

    @property
    def client_name(self) -> str:
        return self.ports.name

    def start(self):
        """CONNECT to every broker and begin dispatching deliveries."""
        if self._started:
            return None
        self._started = True
        self.ports.serve(frames.DELIVER, self._on_deliver)
        self.ports.serve(frames.PUBACK, self._on_puback)
        self.ports.start()
        return self._register_at(self.broker_names)

    def create_session(self) -> "JmsSession":
        if not self._started:
            raise BrokerError("connection not started")
        return JmsSession(self)

    def reconnect(self):
        """Re-register with the brokers after a restart (§6.1).

        Re-sends CONNECT plus a SUBSCRIBE for every topic this client
        listens to; a restarted broker rebuilt its registry from scratch.
        """
        if not self._started:
            raise BrokerError("connection not started")
        return self._register_at(self.broker_names)

    # -- internals -------------------------------------------------------------

    def _register_at(self, brokers):
        """CONNECT at each of ``brokers`` and (re-)SUBSCRIBE every topic
        this client listens to."""
        return self.ports.finish(self._announce(tuple(brokers), tuple(self._listeners)))

    def _announce(self, brokers, topics, connect: bool = True):
        """At each of ``brokers``: CONNECT, then SUBSCRIBE each of ``topics``."""
        for broker in brokers:
            if connect:
                yield self.ports.cast(broker, frames.CONNECT, JmsFrame(), 64)
            for topic in topics:
                yield self.ports.cast(broker, frames.SUBSCRIBE, JmsFrame(topic=topic), 64)

    def _on_deliver(self, src: str, message):
        frame: JmsFrame = message.payload
        # remember which broker delivered this copy so the consumer's
        # ACK returns to it, not to the default broker
        frame.delivered_by = src
        for listener in self._listeners.get(frame.topic, []):
            yield from listener(frame)

    def _on_puback(self, src: str, message) -> None:
        complete = self._pending_acks.pop((src, message.payload.message_id), None)
        if complete is not None:
            complete()

    def _register_listener(self, topic: str, listener: Callable):
        self._listeners.setdefault(topic, []).append(listener)
        return self.ports.finish(
            self._announce(tuple(self.broker_names), (topic,), connect=False)
        )

    def _send_ack(self, frame: JmsFrame):
        return self.ports.cast(
            getattr(frame, "delivered_by", self.broker_name),
            frames.ACK,
            JmsFrame(message_id=frame.message_id),
            32,
        )

    # -- reliable publish ------------------------------------------------------

    def publish_reliable(self, frame: JmsFrame, broker: str | None = None):
        """Body: publish ``frame`` and retransmit until the broker
        PUBACKs or the retry budget is spent; returns True/False.

        Drive it from a client protocol body or spawn it detached.  The
        sequence header survives retransmission because the broker never
        mutates the frame it receives.
        """
        target = broker or self.broker_name
        seq = next(self._pub_seq)
        frame.headers[frames.HDR_PUB_SEQ] = seq
        key = (target, seq)
        retries = PUBLISH_RETRIES
        try:
            for attempt in range(retries + 1):
                # armed before the frame leaves, so the PUBACK cannot
                # beat it; one key for every attempt, so a late ack of
                # an earlier transmission settles the current wait
                acked, self._pending_acks[key] = self.ports.completable(
                    PUBACK_TIMEOUT_S, f"publish seq {seq} to {target}"
                )
                if attempt:
                    self.publish_retransmits += 1
                try:
                    yield self.ports.cast(target, frames.PUBLISH, frame, frame.wire_size)
                    yield acked
                    return True
                except TransportError:
                    if attempt < retries:
                        backoff = PUBLISH_BACKOFF_S * (2**attempt)
                        jitter = _jitter_rng(
                            self.client_name, target, seq, attempt
                        ).uniform(0.0, backoff)
                        yield self.ports.sleep(backoff + jitter)
            self.publish_failures += 1
            return False
        finally:
            self._pending_acks.pop(key, None)


class JmsSession:
    """Factory for producers and consumers (JMS Session analogue)."""

    def __init__(self, connection: JmsConnection):
        self.connection = connection

    def create_producer(self, topic: str) -> "MessageProducer":
        return MessageProducer(self.connection, topic)

    def create_consumer(self, topic: str) -> "MessageConsumer":
        return MessageConsumer(self.connection, topic)


class MessageProducer:
    """Publishes opaque bodies to one topic."""

    def __init__(self, connection: JmsConnection, topic: str):
        self.connection = connection
        self.topic = topic

    def send(
        self,
        body: Any,
        body_size: int,
        headers: dict[str, Any] | None = None,
        broker: str | None = None,
        reliable: bool = False,
    ):
        """Publish one frame.

        ``broker`` routes to a specific shard (default: the connection's
        first broker).  ``reliable=True`` returns the acked-publish body
        for the caller to drive or spawn; the plain path is a
        fire-and-forget cast and returns what the cast returned.
        """
        frame = JmsFrame(
            topic=self.topic, body=body, body_size=body_size, headers=headers or {}
        )
        if reliable:
            return self.connection.publish_reliable(frame, broker=broker)
        target = broker or self.connection.broker_name
        return self.connection.ports.cast(target, frames.PUBLISH, frame, frame.wire_size)


class MessageConsumer:
    """Receives deliveries for one topic via a message listener."""

    def __init__(self, connection: JmsConnection, topic: str):
        self.connection = connection
        self.topic = topic
        self._listener: Callable[[JmsFrame], None] | None = None

    def set_message_listener(self, listener: Callable[[JmsFrame], None]):
        if self._listener is not None:
            raise BrokerError("consumer already has a listener")
        self._listener = listener
        return self.connection._register_listener(self.topic, self._on_frame)

    def _on_frame(self, frame: JmsFrame):
        # ACK on receipt: the broker's delivered/acked counters are the
        # publish-ack SLO signal
        yield self.connection._send_ack(frame)
        self._listener(frame)
