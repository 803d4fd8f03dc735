"""Binary wire format for the live TCP substrate.

One **frame** is what the simulator calls a :class:`~repro.net.network.Message`:
a message type, a headers dict, and a payload.  On the wire it is:

.. code-block:: text

    frame        := u16 len || header_json || u32 len || headers_json || payload
    header_json  := {"t": msg_type, "s": src}       (UTF-8 JSON)
    headers_json := {...headers...}                 (UTF-8 JSON; length 0 reads as {})
    payload      := tag u8 || body                  (see codecs below)

Frames never travel bare: the secure channel (:mod:`repro.live.channel`)
wraps each one in an authenticated-encryption record with a sequence
number, and prefixes the record with a u32 length.  Every value in the
headers must therefore be JSON-serializable; the observability span
context (:class:`repro.obs.tracing.SpanContext`) is converted to its
wire form on encode and rebuilt on decode, which is what lets one trace
tree span multiple OS processes.

Payload codecs cover exactly the object vocabulary the P3S protocol puts
on the wire: raw bytes, the three :mod:`repro.core.messages` dataclasses,
JMS frames (which nest one of the others as their body), strings and
``None``.  Unknown payload types are a :class:`~repro.errors.TransportError`
at encode time — nothing silently pickles.

Decoding reads bytes a peer chose, through one :class:`~repro.reader.Reader`:
whatever is not a frame this module could have written — a field cut
short, bytes after the payload, malformed JSON, text that is not UTF-8,
a header that is not a JSON object, a type or source that is not a
string, payloads nested deeper than :data:`MAX_PAYLOAD_DEPTH` — is a
:class:`~repro.errors.TransportError`, never another exception.
"""

from __future__ import annotations

import json
import struct
from typing import Any

from ..core.messages import AnonEnvelope, EncryptedMetadata, PayloadSubmission
from ..errors import TransportError
from ..mq.messages import JmsFrame
from ..net.transport import TransportMessage
from ..obs.tracing import CONTEXT_HEADER, SpanContext
from ..reader import Reader, prefixed

__all__ = [
    "encode_frame",
    "decode_frame",
    "encode_payload",
    "MAX_FRAME_BYTES",
]

MAX_FRAME_BYTES = 16 * 1024 * 1024  # sanity bound on one record
# payloads inside payloads: the protocol puts one leaf in a JMS frame or
# an anonymizer envelope; the rest is room for a relay cascade
MAX_PAYLOAD_DEPTH = 8

_TAG_NONE = 0
_TAG_BYTES = 1
_TAG_METADATA = 2
_TAG_SUBMISSION = 3
_TAG_ANON = 4
_TAG_JMS = 5
_TAG_STR = 6


def _json_object(text: str, what: str) -> dict:
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise TransportError(f"malformed {what}: {exc}") from exc
    if not isinstance(value, dict):
        raise TransportError(f"malformed {what}: not a JSON object")
    return value


# -- payload codecs ------------------------------------------------------------


def encode_payload(payload: Any) -> bytes:
    if payload is None:
        return bytes([_TAG_NONE])
    if isinstance(payload, (bytes, bytearray)):
        return bytes([_TAG_BYTES]) + bytes(payload)
    if isinstance(payload, str):
        return bytes([_TAG_STR]) + payload.encode("utf-8")
    if isinstance(payload, EncryptedMetadata):
        return (
            bytes([_TAG_METADATA])
            + struct.pack(">I", payload.publication_id)
            + payload.hve_bytes
        )
    if isinstance(payload, PayloadSubmission):
        return (
            bytes([_TAG_SUBMISSION])
            + prefixed(payload.guid)
            + struct.pack(">d", payload.ttl_s)
            + payload.ciphertext
        )
    if isinstance(payload, AnonEnvelope):
        return (
            bytes([_TAG_ANON])
            + prefixed(payload.dst.encode("utf-8"))
            + prefixed(payload.inner_type.encode("utf-8"))
            + encode_payload(payload.inner_payload)
        )
    if isinstance(payload, JmsFrame):
        return (
            bytes([_TAG_JMS])
            + prefixed(payload.topic.encode("utf-8"))
            + struct.pack(">Q", payload.message_id)
            + struct.pack(">I", payload.body_size)
            + prefixed(_encode_headers(payload.headers))
            + encode_payload(payload.body)
        )
    raise TransportError(f"no wire codec for payload type {type(payload).__name__}")


def _read_payload(reader: Reader, depth: int) -> Any:
    """One payload from ``reader``, its fields read in wire order: a leaf
    takes the rest of it, a JMS frame or an envelope nests the next payload."""
    if depth > MAX_PAYLOAD_DEPTH:
        raise TransportError(f"payload nested deeper than {MAX_PAYLOAD_DEPTH}")
    tag = reader.u8()
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_BYTES:
        return reader.rest()
    if tag == _TAG_STR:
        return reader.utf8(reader.remaining)
    if tag == _TAG_METADATA:
        return EncryptedMetadata(publication_id=reader.u32(), hve_bytes=reader.rest())
    if tag == _TAG_SUBMISSION:
        guid, ttl_s = reader.prefixed(), reader.f64()
        return PayloadSubmission(guid=guid, ciphertext=reader.rest(), ttl_s=ttl_s)
    if tag == _TAG_ANON:
        return AnonEnvelope(
            dst=reader.utf8(reader.u32()),
            inner_type=reader.utf8(reader.u32()),
            inner_payload=_read_payload(reader, depth + 1),
        )
    if tag == _TAG_JMS:
        return JmsFrame(
            topic=reader.utf8(reader.u32()),
            message_id=reader.u64(),
            body_size=reader.u32(),
            headers=_read_headers(reader),
            body=_read_payload(reader, depth + 1),
        )
    raise TransportError(f"unknown payload tag {tag}")


# -- header codec --------------------------------------------------------------


def _encode_headers(headers: dict[str, Any]) -> bytes:
    wire: dict[str, Any] = {}
    for key, value in headers.items():
        if isinstance(value, SpanContext):
            wire[key] = value.to_wire()
        elif isinstance(value, (str, int, float, bool)) or value is None:
            wire[key] = value
        else:
            raise TransportError(
                f"header {key!r} of type {type(value).__name__} is not wire-safe"
            )
    return json.dumps(wire, separators=(",", ":")).encode("utf-8")


def _read_headers(reader: Reader) -> dict[str, Any]:
    n = reader.u32()
    headers = _json_object(reader.utf8(n), "frame headers") if n else {}
    context = SpanContext.from_wire(headers.get(CONTEXT_HEADER))
    if context is not None:
        headers[CONTEXT_HEADER] = context
    return headers


# -- frame codec ---------------------------------------------------------------


def encode_frame(message: TransportMessage) -> bytes:
    """Serialize one frame (the plaintext of one channel record)."""
    header = json.dumps(
        {"t": message.msg_type, "s": message.src},
        separators=(",", ":"),
    ).encode("utf-8")
    header_block = prefixed(_encode_headers(message.headers))
    return (
        struct.pack(">H", len(header))
        + header
        + header_block
        + encode_payload(message.payload)
    )


def decode_frame(data: bytes) -> TransportMessage:
    """Parse one channel-record plaintext back into a frame."""
    reader = Reader(data, TransportError)
    meta = _json_object(reader.utf8(reader.u16()), "frame header")
    msg_type, src = meta.get("t"), meta.get("s", "")
    if not (isinstance(msg_type, str) and isinstance(src, str)):
        raise TransportError("malformed frame header: type and source must be strings")
    headers = _read_headers(reader)
    payload = _read_payload(reader, 0)
    reader.end()
    return TransportMessage(msg_type=msg_type, payload=payload, src=src, headers=headers)
