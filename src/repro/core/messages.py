"""P3S application-layer message payloads.

Every payload knows its own wire size (``wire_size``), computed from real
serialized ciphertext lengths, so the simulator's serialization-time
accounting is byte-accurate.  Payload *contents* are ciphertext wherever
the protocol says so — a dataclass here holding ``bytes`` holds actual
encrypted bytes produced by the crypto layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import ReproError, SerializationError

# the topic every subscriber consumes and the DS fans metadata out on
METADATA_TOPIC = "p3s.metadata"
# the topic a publisher's PUBLISH frames are addressed to
PUBLISH_TOPIC = "p3s.publish"
# P3S frame kinds carried in JMS headers / RPC message types
KIND_METADATA = "p3s.metadata"
KIND_PAYLOAD = "p3s.payload"
# Delegated-matching extension (opt-in; trades interest privacy at the DS
# for fan-out bandwidth — see repro.core.ds): subscribers hand serialized
# PBE tokens to the DS so it can pre-filter the metadata fan-out.
KIND_TOKEN_REG = "p3s.token-reg"
KIND_TOKEN_UNREG = "p3s.token-unreg"
RPC_TOKEN_REQUEST = "p3s.token-request"
RPC_RETRIEVE = "p3s.retrieve"
RPC_STORE = "p3s.store"
RPC_ANON_FORWARD = "p3s.anon-forward"
# Operational telemetry plane (repro.live.telemetry): the one admin request
# every live service answers, to the operator only, with a JSON snapshot.
KIND_TELEMETRY = "p3s.telemetry"

__all__ = [
    "METADATA_TOPIC",
    "KIND_METADATA",
    "KIND_PAYLOAD",
    "KIND_TOKEN_REG",
    "KIND_TOKEN_UNREG",
    "KIND_TELEMETRY",
    "RPC_TOKEN_REQUEST",
    "RPC_RETRIEVE",
    "RPC_STORE",
    "RPC_ANON_FORWARD",
    "EncryptedMetadata",
    "PayloadSubmission",
    "AnonEnvelope",
    "wire_size_of",
    "ok_reply",
    "error_reply",
    "split_reply",
    "unhex",
    "BARE_ERROR",
]


@dataclass(frozen=True)
class EncryptedMetadata:
    """PBE-encrypted GUID, broadcast by the DS to every subscriber.

    ``publication_id`` is a simulation-only correlation handle (deliveries
    carry it back to the run's reports); it is not on the real wire (and
    carries no information the DS could not already infer from frame
    ordering).
    """

    hve_bytes: bytes
    publication_id: int

    @property
    def wire_size(self) -> int:
        return len(self.hve_bytes)


@dataclass(frozen=True)
class PayloadSubmission:
    """The 3-tuple (GUID, CP-ABE-encrypted (GUID, payload), TTL) of §4.3."""

    guid: bytes
    ciphertext: bytes
    ttl_s: float

    @property
    def wire_size(self) -> int:
        return len(self.guid) + len(self.ciphertext) + 8  # 8-byte TTL field


@dataclass(frozen=True)
class AnonEnvelope:
    """A request relayed via the anonymization service.

    The anonymizer learns the ultimate destination and the opaque inner
    request, but forwards with itself as the source — hiding the
    requester's identity from the destination.
    """

    dst: str
    inner_type: str
    inner_payload: Any

    @property
    def wire_size(self) -> int:
        return 32 + wire_size_of(self.inner_payload)  # routing header + inner


def wire_size_of(payload: Any) -> int:
    """Wire size of an RPC payload: bytes, None, or size-aware dataclass."""
    if payload is None:
        return 16
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    size = getattr(payload, "wire_size", None)
    if size is None:
        raise SerializationError(f"payload {type(payload).__name__} has no wire size")
    return size


# -- status-prefixed replies (RS retrievals, PBE-TS token requests) -------------
#
# Both exchanges answer with one status byte then the body, sealed under
# the requester's K_s.  The byte values are this module's business only.

_OK = b"\x01"
_ERR = b"\x00"
# what a server answers when it cannot even recover K_s from the request
# (nothing to seal under): a bare error byte the requester fails to open
BARE_ERROR = _ERR


def ok_reply(body: bytes) -> bytes:
    return _OK + body


def error_reply(reason: str) -> bytes:
    return _ERR + reason.encode("utf-8")


def unhex(text: str, error: type[ReproError], size: int | None = None) -> bytes:
    """The bytes hex ``text`` spells (exactly ``size`` of them, if given), or ``error``."""
    try:
        raw = bytes.fromhex(text)
    except ValueError as exc:
        raise error(f"not a hex string: {exc}") from None
    if size not in (None, len(raw)):
        raise error(f"{len(raw)} bytes where {size} belong")
    return raw


def split_reply(plaintext: bytes) -> tuple[bool, bytes]:
    """``(succeeded, body)`` of an unsealed reply; empty reads as failure."""
    return plaintext[:1] == _OK, plaintext[1:]
