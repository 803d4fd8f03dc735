"""Frame and payload codec: round-trips and malformed-input rejection."""

from __future__ import annotations

import pytest

from repro.core.messages import AnonEnvelope, EncryptedMetadata, PayloadSubmission
from repro.errors import TransportError
from repro.live.wire import decode_frame, encode_frame, encode_payload
from repro.mq.messages import JmsFrame
from repro.net.transport import TransportMessage
from repro.obs.tracing import CONTEXT_HEADER, SpanContext

pytestmark = pytest.mark.live


def roundtrip(message: TransportMessage) -> TransportMessage:
    return decode_frame(encode_frame(message))


def decode_payload(data: bytes):
    """A payload as the frame decoder reads it: the last part of a frame
    (a ``None`` payload is its one tag byte)."""
    empty = encode_frame(TransportMessage(msg_type="t", payload=None, src="s"))
    return decode_frame(empty[:-1] + data).payload


class TestPayloadCodecs:
    @pytest.mark.parametrize(
        "payload",
        [
            None,
            b"",
            b"\x00\xffsome-bytes",
            "plain text ✓",
            EncryptedMetadata(hve_bytes=b"\x01" * 64, publication_id=7),
            PayloadSubmission(guid=b"g" * 16, ciphertext=b"\x02" * 80, ttl_s=12.5),
            AnonEnvelope(dst="rs", inner_type="p3s.retrieve", inner_payload=b"req"),
            JmsFrame(
                topic="p3s.metadata",
                body=EncryptedMetadata(hve_bytes=b"\x03" * 10, publication_id=1),
                body_size=10,
                message_id=42,
                headers={"p3s-kind": "p3s.metadata"},
            ),
        ],
    )
    def test_roundtrip(self, payload):
        decoded = decode_payload(encode_payload(payload))
        assert decoded == payload

    def test_nested_envelope(self):
        inner = PayloadSubmission(guid=b"g" * 16, ciphertext=b"c" * 8, ttl_s=1.0)
        envelope = AnonEnvelope(dst="rs", inner_type="p3s.store", inner_payload=inner)
        assert decode_payload(encode_payload(envelope)) == envelope

    def test_unencodable_payload_rejected(self):
        with pytest.raises(TransportError):
            encode_payload(object())

    def test_unknown_tag_rejected(self):
        with pytest.raises(TransportError):
            decode_payload(bytes([250]) + b"junk")

    def test_empty_payload_rejected(self):
        with pytest.raises(TransportError):
            decode_payload(b"")


class TestFrameCodec:
    def test_roundtrip_with_headers(self):
        message = TransportMessage(
            msg_type="p3s.retrieve",
            payload=b"ciphertext",
            src="alice",
            headers={"rpc": "request", "corr": 9, "reply_to": "alice"},
        )
        decoded = roundtrip(message)
        assert decoded.msg_type == message.msg_type
        assert decoded.payload == message.payload
        assert decoded.src == message.src
        assert decoded.headers == message.headers

    def test_span_context_survives_the_wire(self):
        context = SpanContext(trace_id=0xDEAD, span_id=0xBEEF)
        message = TransportMessage(
            msg_type="jms.publish", payload=None, src="pub",
            headers={CONTEXT_HEADER: context, "p3s-kind": "p3s.metadata"},
        )
        decoded = roundtrip(message)
        restored = decoded.headers[CONTEXT_HEADER]
        assert isinstance(restored, SpanContext)
        assert (restored.trace_id, restored.span_id) == (0xDEAD, 0xBEEF)

    def test_unserializable_header_rejected(self):
        message = TransportMessage(
            msg_type="x", payload=None, src="s", headers={"bad": object()}
        )
        with pytest.raises(TransportError):
            encode_frame(message)

    @pytest.mark.parametrize("data", [b"", b"\x00", b"\x00\x40short", b"\xff\xff"])
    def test_truncated_frames_rejected(self, data):
        with pytest.raises(TransportError):
            decode_frame(data)

    def test_truncated_tail_rejected(self):
        encoded = encode_frame(
            TransportMessage(msg_type="t", payload=b"full-payload", src="s")
        )
        with pytest.raises(TransportError):
            decode_frame(encoded[:3])
