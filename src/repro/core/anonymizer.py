"""Anonymization service: a relay hiding requester identity from servers.

Paper §4.1: "If available, subscribers contact PBE-TS and RS via the
anonymization service.  P3S's basic privacy properties are independent of
anonymization, but if incorporated, anonymization enhances privacy
protection further by hiding the subscriber identity to PBE-TS and RS."

The relay re-originates each request: the destination sees the anonymizer
as the source and replies to it; the relay forwards the response to the
real requester.  Inner payloads are already end-to-end encrypted under
the destination's PKE key, and responses are super-encrypted under the
requester's session key K_s — so the relay itself learns only
(requester, destination, sizes, timing), which is what the paper's model
assumes of an anonymizing channel.
"""

from __future__ import annotations

from ..net.ports import ports_on
from ..obs import hooks as obs
from .messages import RPC_ANON_FORWARD, AnonEnvelope, wire_size_of

__all__ = ["AnonymizationService"]


class AnonymizationService:
    """One-hop anonymizing relay for P3S request-response traffic, served
    on ``ports`` (a simulator :class:`~repro.net.network.Host` stands for
    simulator ports on it)."""

    def __init__(self, ports):
        self.ports = ports_on(ports)
        self.forwarded_count = 0
        # what the relay itself could record: (requester, destination) pairs
        self.observed_links: list[tuple[str, str]] = []
        self.ports.serve(RPC_ANON_FORWARD, self._handle_forward)

    @property
    def name(self) -> str:
        return self.ports.name

    def start(self) -> None:
        self.ports.start()

    def _handle_forward(self, src: str, message):
        envelope: AnonEnvelope = message.payload
        self.observed_links.append((src, envelope.dst))
        self.forwarded_count += 1
        span = obs.start_span(
            "anon.forward",
            component=self.name,
            parent=obs.extract(message.headers),
            dst=envelope.dst,
        )
        response = yield self.ports.call(
            envelope.dst,
            envelope.inner_type,
            envelope.inner_payload,
            wire_size_of(envelope.inner_payload),
            headers=obs.inject({}, span),
        )
        obs.end_span(span)
        return (response, wire_size_of(response))
