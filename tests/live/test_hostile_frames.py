"""Hostile bytes at the live frame decoder (ROADMAP item 1, next slice).

A frame is the plaintext of one AEAD record, so every byte of it is the
authenticated peer's to choose.  One property, in the style of
``tests/pbe/test_hostile_bytes.py``: a valid frame mutated by
truncation, a bit flip, an inflated length field or a splice with
another frame either decodes to a message that re-encodes stably, or is
rejected with :class:`TransportError` — never another exception, which
the endpoint's reader loop would not catch.  Each crash the property
stands for is pinned below as an ``@example``.
"""

import json
import struct

import pytest
from hypothesis import example, given, settings

from repro.core.messages import AnonEnvelope, EncryptedMetadata, PayloadSubmission
from repro.errors import TransportError
from repro.live.wire import (
    MAX_PAYLOAD_DEPTH,
    decode_frame,
    decode_payload,
    encode_frame,
    encode_payload,
)
from repro.mq.messages import JmsFrame
from repro.net.transport import TransportMessage
from repro.obs.tracing import CONTEXT_HEADER, SpanContext

from ..hostile import hostile

pytestmark = pytest.mark.live

FRAMES = [
    encode_frame(TransportMessage(msg_type, payload, src, headers))
    for msg_type, payload, src, headers in (
        ("p3s.retrieve", b"sealed-request", "alice",
         {"rpc": "request", "corr": 9, CONTEXT_HEADER: SpanContext(5, 6)}),
        ("p3s.retrieve:reply", "sealed ✓", "rs", {"rpc": "response", "corr": 9}),
        ("jms.publish", JmsFrame(
            topic="p3s.metadata",
            body=EncryptedMetadata(hve_bytes=b"\x03" * 24, publication_id=1),
            body_size=24, message_id=42, headers={"p3s-kind": "p3s.metadata", "seq": 3},
        ), "pub", {}),
        ("p3s.anon", AnonEnvelope(dst="rs", inner_type="p3s.retrieve", inner_payload=b"q"),
         "bob", {"rpc": "request", "corr": 10}),
        ("p3s.store", PayloadSubmission(guid=b"g" * 16, ciphertext=b"c" * 20, ttl_s=2.5),
         "ds", {}),
        ("jms.connect", None, "carol", {}),
    )
]  # fmt: skip


def frame_fields(frame: bytes) -> list[tuple[int, str]]:
    """A frame's two length fields: the u16 header length and the u32
    header-block length after the header."""
    (header_len,) = struct.unpack_from(">H", frame)
    return [(0, ">H"), (2 + header_len, ">I")]


def _frame(header: bytes, headers: bytes = b"{}", payload: bytes = b"\x00") -> bytes:
    """The encoder's layout around hand-chosen parts it would never write."""
    return (
        struct.pack(">H", len(header)) + header + struct.pack(">I", len(headers)) + headers + payload
    )


HEADER = json.dumps({"t": "probe", "s": "peer"}).encode()


def _nested_envelopes(depth: int) -> bytes:
    payload = encode_payload(b"leaf")
    for _ in range(depth):
        payload = bytes([4]) + struct.pack(">I", 2) + b"rs" + struct.pack(">I", 1) + b"x" + payload
    return payload


# every one of these escaped decode_frame as a non-ReproError exception
HEADER_IS_A_LIST = _frame(b"[1,2]")  # TypeError
HEADER_IS_A_STRING = _frame(b'"ts"')  # TypeError
HEADERS_NOT_UTF8 = _frame(HEADER, b"\xff")  # UnicodeDecodeError
HEADERS_NOT_JSON = _frame(HEADER, b"{")  # JSONDecodeError
HEADERS_ARE_A_LIST = _frame(HEADER, b"[1]")  # AttributeError
HEADERS_NESTED_DEEP = _frame(HEADER, b"[" * 100_000)  # RecursionError
TEXT_NOT_UTF8 = _frame(HEADER, payload=b"\x06\xff")  # UnicodeDecodeError
ENVELOPES_NESTED_DEEP = _frame(HEADER, payload=_nested_envelopes(5000))  # RecursionError
# ... and this one decoded, into a msg_type that is not a str
TYPE_IS_AN_INT = _frame(b'{"t":5}')


@settings(max_examples=400, deadline=None)
@given(hostile(FRAMES, frame_fields))
@example(HEADER_IS_A_LIST)
@example(HEADER_IS_A_STRING)
@example(HEADERS_NOT_UTF8)
@example(HEADERS_NOT_JSON)
@example(HEADERS_ARE_A_LIST)
@example(HEADERS_NESTED_DEEP)
@example(TEXT_NOT_UTF8)
@example(ENVELOPES_NESTED_DEEP)
@example(TYPE_IS_AN_INT)
def test_hostile_frame_round_trips_or_is_rejected(blob):
    try:
        message = decode_frame(blob)
    except TransportError:
        return
    assert isinstance(message.msg_type, str) and isinstance(message.src, str)
    assert isinstance(message.headers, dict)
    try:
        encoded = encode_frame(message)
    except TransportError:
        return  # a header value a peer may send but this side never writes
    assert encode_frame(decode_frame(encoded)) == encoded


def test_the_deepest_accepted_nesting_round_trips():
    payload = _nested_envelopes(MAX_PAYLOAD_DEPTH)
    assert encode_frame(decode_frame(_frame(HEADER, payload=payload))).endswith(payload)
    with pytest.raises(TransportError, match="nested deeper"):
        decode_frame(_frame(HEADER, payload=_nested_envelopes(MAX_PAYLOAD_DEPTH + 1)))


@pytest.mark.parametrize(
    "payload", [b"\x00trailing", encode_payload(JmsFrame(topic="t", body=None)) + b"x"]
)
def test_hostile_payload_with_bytes_after_none_is_rejected(payload):
    """``None`` is one tag byte: the bytes after it were dropped, so the
    payload re-encoded shorter than it came (stable, so the property above
    let it by)."""
    with pytest.raises(TransportError, match="trailing"):
        decode_payload(payload)
    with pytest.raises(TransportError, match="trailing"):
        decode_frame(_frame(HEADER, payload=payload))
