"""The ``obs-ctx`` header is outside input: whatever JSON a peer puts
under it decodes to a :class:`SpanContext` or to nothing — never an
exception.  (A live endpoint handed the ``HOSTILE`` ones below keeps
serving, the receiver's spans simply rootless:
``tests/live/test_rpc.py::TestHostileSpanContext``.)
"""

from __future__ import annotations

import json
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.wire import decode_frame, encode_frame
from repro.net.transport import TransportMessage
from repro.obs.tracing import CONTEXT_HEADER, SpanContext, Tracer

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # json.dumps/loads carry NaN and Infinity as bare tokens
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)
# most random JSON is nowhere near the accepted shape; int lists are
near_misses = st.lists(st.integers(), max_size=4)

# the 3-element form of the retired sampling bit, nesting, ints past any
# id, strings, bools (ints to isinstance), floats, negatives, objects
HOSTILE = [
    [1, 2, 1],
    [[1], [2]],
    [10**40, 1],
    "7,9",
    [True, False],
    [1.0, 2.0],
    [-1, 2],
    {"trace_id": 1, "span_id": 2},
    None,
]


def frame_with_context(value: object) -> bytes:
    """One wire frame whose headers carry ``value`` under ``obs-ctx``
    (``encode_frame`` refuses to write one, so this mirrors its layout)."""
    meta = json.dumps({"t": "probe", "s": "peer"}).encode()
    headers = json.dumps({CONTEXT_HEADER: value, "k": 1}).encode()
    return (
        struct.pack(">H", len(meta))
        + meta
        + struct.pack(">I", len(headers))
        + headers
        + b"\x00"  # payload: None
    )


class TestDecoder:
    @settings(max_examples=300)
    @given(json_values | near_misses)
    def test_any_json_value_decodes_to_a_context_or_none(self, value):
        decoded = SpanContext.from_wire(value)
        assert decoded is None or isinstance(decoded, SpanContext)
        assert Tracer.extract({CONTEXT_HEADER: value}) == decoded
        message = decode_frame(frame_with_context(value))
        assert message.headers["k"] == 1
        assert Tracer.extract(message.headers) == decoded
        if decoded is not None:
            # accepted means canonical: it is what to_wire would have sent
            assert decoded.to_wire() == value

    def test_the_wire_form_is_two_ids(self):
        assert SpanContext(1, 2).to_wire() == [1, 2]
        assert SpanContext.from_wire([1, 2]) == SpanContext(1, 2)
        for value in HOSTILE:
            assert SpanContext.from_wire(value) is None, value

    def test_frame_layout_matches_the_encoder(self):
        # the hand-built frame above is the encoder's layout, not a guess
        message = TransportMessage(
            msg_type="probe", payload=None, src="peer",
            headers={CONTEXT_HEADER: SpanContext(1, 2), "k": 1},
        )
        assert decode_frame(frame_with_context([1, 2])) == decode_frame(encode_frame(message))
