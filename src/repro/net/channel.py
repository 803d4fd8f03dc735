"""TLS-like secure channels over the simulated network.

The paper: "The DS sets up TLS tunnels to subscribers and publishers"
(§4.1) and "Publishers and subscribers interact with the DS over TLS"
(§5).  A :class:`SecureChannelLayer` on a host models exactly the
properties P3S relies on:

* **confidentiality/integrity on the wire** — eavesdroppers see only
  endpoints and sizes (the :class:`~repro.net.network.Network` trace
  records a ``"tls"`` wire label, never content);
* **per-record overhead** — a constant :data:`TLS_RECORD_OVERHEAD` bytes
  are added to every message's wire size;
* **loss detection** — "because of TLS and the request-response nature of
  P3S messages, participants can detect if network failures cause message
  loss" (§6.1): sequence numbers per peer let the receiver detect gaps.

Cryptographic handshakes are not re-simulated — the endpoints are
authenticated out of band by the ARA-issued contact information, and the
actual record protection here is *modeled* (contents already ride inside
the simulator as Python objects; P3S's own application-layer encryption
is real).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import ChannelClosedError
from .network import Host, Message

__all__ = ["SecureChannelLayer", "TLS_RECORD_OVERHEAD"]

TLS_RECORD_OVERHEAD = 29  # TLS 1.2 GCM record overhead: 8 seq + 16 tag + 5 header


@dataclass
class _PeerState:
    send_seq: int = 0
    recv_seq: int = 0
    gaps_detected: int = 0


class SecureChannelLayer:
    """Sequenced, overhead-accounted messaging endpoint for one host.

    A detected sequence gap is counted, not raised: the paper's
    application-level model, where the request/response layer retries.
    """

    def __init__(self, host: Host):
        self.host = host
        self._peers: dict[str, _PeerState] = {}
        self._closed = False

    def close(self) -> None:
        self._closed = True

    def _peer(self, name: str) -> _PeerState:
        if name not in self._peers:
            self._peers[name] = _PeerState()
        return self._peers[name]

    def send(
        self,
        dst: str,
        msg_type: str,
        payload: Any,
        size_bytes: int,
        headers: dict[str, Any] | None = None,
    ) -> float:
        """Send one protected record; returns predicted arrival time."""
        if self._closed:
            raise ChannelClosedError(f"channel layer on {self.host.name} is closed")
        state = self._peer(dst)
        message = Message(
            msg_type=msg_type,
            payload=payload,
            size_bytes=size_bytes + TLS_RECORD_OVERHEAD,
            wire_label="tls",
            headers={**(headers or {}), "seq": state.send_seq},
        )
        state.send_seq += 1
        return self.host.send(dst, message)

    def receive(self):
        """Event yielding ``(src, Message)``; updates loss-detection state."""
        event = self.host.receive()
        event.add_callback(self._on_receive)
        return event

    def _on_receive(self, event) -> None:
        if event.failure is not None:
            return
        src, message = event.value
        state = self._peer(src)
        seq = message.headers.get("seq")
        if seq is not None:
            if seq > state.recv_seq:
                state.gaps_detected += seq - state.recv_seq
            state.recv_seq = max(state.recv_seq, seq + 1)

    def gaps_detected(self, peer: str) -> int:
        """Messages from ``peer`` known lost (application-level loss detection)."""
        return self._peer(peer).gaps_detected
