"""Binary wire format for the live TCP substrate.

One **frame** is what the simulator calls a :class:`~repro.net.network.Message`:
a message type, a headers dict, and a payload.  On the wire it is:

.. code-block:: text

    frame   := u16 header_len || header_json || payload
    header  := {"t": msg_type, "s": src, "h": {...headers...}}   (UTF-8 JSON)
    payload := tag u8 || body                                    (see codecs below)

Frames never travel bare: the secure channel (:mod:`repro.live.channel`)
wraps each one in an authenticated-encryption record with a sequence
number, and prefixes the record with a u32 length.  Everything in the
header must therefore be JSON-serializable; the observability span
context (:class:`repro.obs.tracing.SpanContext`) is converted to its
wire form on encode and rebuilt on decode, which is what lets one trace
tree span multiple OS processes.

Payload codecs cover exactly the object vocabulary the P3S protocol puts
on the wire: raw bytes, the three :mod:`repro.core.messages` dataclasses,
JMS frames (which nest one of the others as their body), strings and
``None``.  Unknown payload types are a :class:`~repro.errors.TransportError`
at encode time — nothing silently pickles.

Decoding reads bytes a peer chose: whatever is not a frame this module
could have written — malformed JSON, text that is not UTF-8, a header
that is not a JSON object, a type or source that is not a string,
payloads nested deeper than :data:`MAX_PAYLOAD_DEPTH` — is a
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

__all__ = [
    "encode_frame",
    "decode_frame",
    "encode_payload",
    "decode_payload",
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


def _pack_bytes(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def _unpack_bytes(buffer: bytes, offset: int) -> tuple[bytes, int]:
    if offset + 4 > len(buffer):
        raise TransportError("truncated frame: missing length prefix")
    (length,) = struct.unpack_from(">I", buffer, offset)
    offset += 4
    if offset + length > len(buffer):
        raise TransportError("truncated frame: body shorter than its length prefix")
    return buffer[offset : offset + length], offset + length


def _pack_str(text: str) -> bytes:
    return _pack_bytes(text.encode("utf-8"))


def _unpack_str(buffer: bytes, offset: int) -> tuple[str, int]:
    raw, offset = _unpack_bytes(buffer, offset)
    return _text(raw), offset


def _text(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TransportError(f"malformed frame: text is not UTF-8: {exc}") from exc


def _json_object(raw: bytes, what: str) -> dict:
    try:
        value = json.loads(_text(raw))
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
            + _pack_bytes(payload.guid)
            + struct.pack(">d", payload.ttl_s)
            + payload.ciphertext
        )
    if isinstance(payload, AnonEnvelope):
        return (
            bytes([_TAG_ANON])
            + _pack_str(payload.dst)
            + _pack_str(payload.inner_type)
            + encode_payload(payload.inner_payload)
        )
    if isinstance(payload, JmsFrame):
        return (
            bytes([_TAG_JMS])
            + _pack_str(payload.topic)
            + struct.pack(">Q", payload.message_id)
            + struct.pack(">I", payload.body_size)
            + _pack_bytes(_encode_headers(payload.headers))
            + encode_payload(payload.body)
        )
    raise TransportError(f"no wire codec for payload type {type(payload).__name__}")


def decode_payload(data: bytes) -> Any:
    return _decode_payload(data, 0)


def _decode_payload(data: bytes, depth: int) -> Any:
    if not data:
        raise TransportError("empty payload encoding")
    if depth > MAX_PAYLOAD_DEPTH:
        raise TransportError(f"payload nested deeper than {MAX_PAYLOAD_DEPTH}")
    tag, body = data[0], data[1:]
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_BYTES:
        return body
    if tag == _TAG_STR:
        return _text(body)
    if tag == _TAG_METADATA:
        if len(body) < 4:
            raise TransportError("truncated EncryptedMetadata payload")
        (publication_id,) = struct.unpack_from(">I", body, 0)
        return EncryptedMetadata(hve_bytes=body[4:], publication_id=publication_id)
    if tag == _TAG_SUBMISSION:
        guid, offset = _unpack_bytes(body, 0)
        if offset + 8 > len(body):
            raise TransportError("truncated PayloadSubmission payload")
        (ttl_s,) = struct.unpack_from(">d", body, offset)
        return PayloadSubmission(guid=guid, ciphertext=body[offset + 8 :], ttl_s=ttl_s)
    if tag == _TAG_ANON:
        dst, offset = _unpack_str(body, 0)
        inner_type, offset = _unpack_str(body, offset)
        return AnonEnvelope(
            dst=dst, inner_type=inner_type, inner_payload=_decode_payload(body[offset:], depth + 1)
        )
    if tag == _TAG_JMS:
        topic, offset = _unpack_str(body, 0)
        if offset + 12 > len(body):
            raise TransportError("truncated JmsFrame payload")
        (message_id,) = struct.unpack_from(">Q", body, offset)
        (body_size,) = struct.unpack_from(">I", body, offset + 8)
        headers_raw, offset = _unpack_bytes(body, offset + 12)
        return JmsFrame(
            topic=topic,
            body=_decode_payload(body[offset:], depth + 1),
            body_size=body_size,
            message_id=message_id,
            headers=_decode_headers(headers_raw),
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


def _decode_headers(raw: bytes) -> dict[str, Any]:
    headers = _json_object(raw, "frame headers") if raw else {}
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
    header_block = _pack_bytes(_encode_headers(message.headers))
    return (
        struct.pack(">H", len(header))
        + header
        + header_block
        + encode_payload(message.payload)
    )


def decode_frame(data: bytes) -> TransportMessage:
    """Parse one channel-record plaintext back into a frame."""
    if len(data) < 2:
        raise TransportError("truncated frame: missing header length")
    (header_len,) = struct.unpack_from(">H", data, 0)
    if 2 + header_len > len(data):
        raise TransportError("truncated frame: header shorter than declared")
    meta = _json_object(data[2 : 2 + header_len], "frame header")
    msg_type, src = meta.get("t"), meta.get("s", "")
    if not (isinstance(msg_type, str) and isinstance(src, str)):
        raise TransportError("malformed frame header: type and source must be strings")
    headers_raw, offset = _unpack_bytes(data, 2 + header_len)
    return TransportMessage(
        msg_type=msg_type,
        payload=decode_payload(data[offset:]),
        src=src,
        headers=_decode_headers(headers_raw),
    )
