"""Wire frame types for the mini-JMS broker (ActiveMQ stand-in).

Frame type constants keep broker/client dispatch tables honest; every
frame rides inside a :class:`repro.net.network.Message` whose
``msg_type`` is one of these strings and whose ``payload`` is a
:class:`JmsFrame`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

CONNECT = "jms.connect"
SUBSCRIBE = "jms.subscribe"
PUBLISH = "jms.publish"
DELIVER = "jms.deliver"
ACK = "jms.ack"
# broker→publisher acknowledgement of one PUBLISH carrying a
# "jms-pub-seq" header; the reliable-publish retry loop waits on it
PUBACK = "jms.puback"

FRAME_HEADER_BYTES = 24  # topic id, message id, flags — fixed framing cost

# headers.  The publish sequence header makes a PUBLISH frame
# at-least-once-safe: the broker acks it and dedups redeliveries on
# (src, seq); it is stripped from delivery copies so subscribers never
# see transport bookkeeping.
HDR_PUB_SEQ = "jms-pub-seq"

__all__ = [
    "CONNECT",
    "SUBSCRIBE",
    "PUBLISH",
    "DELIVER",
    "ACK",
    "PUBACK",
    "HDR_PUB_SEQ",
    "FRAME_HEADER_BYTES",
    "JmsFrame",
]


@dataclass
class JmsFrame:
    """One broker-protocol frame.

    ``body`` is opaque to the broker (in P3S it is always ciphertext);
    ``body_size`` is the body's wire size in bytes.
    """

    topic: str = ""
    body: Any = None
    body_size: int = 0
    message_id: int = 0
    headers: dict[str, Any] = field(default_factory=dict)

    @property
    def wire_size(self) -> int:
        return self.body_size + FRAME_HEADER_BYTES
