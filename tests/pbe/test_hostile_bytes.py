"""Hostile bytes at the two HVE decoders (ROADMAP item 1, first slice).

One property: a valid encoding mutated by truncation, a bit flip, an
inflated length field or a splice with another encoding either decodes
to a value that re-encodes to the very bytes it came from, or is rejected
with a :class:`ReproError` subclass — never another exception, and never
more point decodings than the bytes in hand could hold (no loop or
allocation sized by a length the sender chose).  A crash this finds is
pinned below as an ``@example``.
"""

import struct
from typing import Callable

from hypothesis import example, given, settings

from repro.crypto.group import PairingGroup
from repro.errors import ReproError
from repro.pbe import HVE
from repro.pbe.serialize import (
    deserialize_hve_ciphertext,
    deserialize_hve_token,
    serialize_hve_ciphertext,
    serialize_hve_token,
)

from ..hostile import hostile


class CountingGroup(PairingGroup):
    """Counts point decodings, so a decoder that trusts a length field shows."""

    decoded = 0

    def deserialize_g1(self, data):
        self.decoded += 1
        return super().deserialize_g1(data)

    def deserialize_g1_compressed(self, data):
        self.decoded += 1
        return super().deserialize_g1_compressed(data)


GROUP = CountingGroup("TOY")
SCHEME = HVE(GROUP)
PUBLIC, MASTER = SCHEME.setup(4)
CIPHERTEXTS = [
    serialize_hve_ciphertext(GROUP, SCHEME.encrypt(PUBLIC, x, payload), compressed=compressed)
    for x, payload in (([1, 0, 1, 0], b"guid-0123456789a"), ([0, 0, 1, 1], b""))
    for compressed in (False, True)
]
TOKENS = [
    serialize_hve_token(GROUP, SCHEME.gen_token(MASTER, y))
    for y in ([1, None, None, 0], [None, 0, None, None], [1, 0, 1, 0])
]


def header_fields(layout: str) -> Callable[[bytes], list[tuple[int, str]]]:
    """The two ``>I`` length fields that end a fixed ``layout`` header
    (a ciphertext's leading flag byte is not a length)."""
    end = struct.calcsize(layout)
    return lambda blob: [(end - 8, ">I"), (end - 4, ">I")]


def _patched(blob, at, replacement):
    return blob[:at] + replacement + blob[at + len(replacement) :]


# found by the property (accepted, but re-encoded differently: two byte
# strings for one value), now rejected by ``Point.from_bytes*``
INFINITY_WITH_COORDINATES = _patched(TOKENS[0], 8 + 4 * 2, b"\x00")  # tag 0x04 -> 0x00
CIPHERTEXT_INFINITY_WITH_COORDINATES = _patched(CIPHERTEXTS[0], 9, b"\x00")
COORDINATE_ABOVE_Q = _patched(CIPHERTEXTS[1], 9, b"\x02" + b"\xff" * GROUP.params.q_bytes)
TWO_TORSION_ODD_ROOT = _patched(CIPHERTEXTS[1], 9, b"\x03" + b"\x00" * GROUP.params.q_bytes)


def round_trips_or_is_rejected(blob, decode, encode):
    GROUP.decoded = 0
    try:
        value = decode(GROUP, blob)
    except ReproError:
        return
    finally:
        assert GROUP.decoded <= len(blob) // GROUP.g1_bytes_compressed
    assert encode(GROUP, value) == blob


@settings(max_examples=300, deadline=None)
@given(hostile(CIPHERTEXTS, header_fields(">BII")))
@example(CIPHERTEXT_INFINITY_WITH_COORDINATES)
@example(COORDINATE_ABOVE_Q)
@example(TWO_TORSION_ODD_ROOT)
def test_hostile_ciphertext_round_trips_or_is_rejected(blob):
    def encode(group, value):
        return serialize_hve_ciphertext(group, value, compressed=blob[0] == 1)

    round_trips_or_is_rejected(blob, deserialize_hve_ciphertext, encode)


@settings(max_examples=300, deadline=None)
@given(hostile(TOKENS, header_fields(">II")))
@example(INFINITY_WITH_COORDINATES)
def test_hostile_token_round_trips_or_is_rejected(blob):
    round_trips_or_is_rejected(blob, deserialize_hve_token, serialize_hve_token)
