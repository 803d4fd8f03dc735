"""Hostile bytes at the two CP-ABE decoders (ROADMAP item 1).

A subscriber decodes the hybrid ciphertext it fetched through the
anonymizer, so every byte of it reached the RS from a publisher nobody
vouches for.  The property of ``tests/pbe/test_hostile_bytes.py``: a
valid encoding mutated by truncation, a bit flip, an inflated length
field or a splice with another encoding either decodes to a value that
re-encodes to the very bytes it came from, or is rejected with a
:class:`ReproError` subclass — never another exception.  Each shape that
escaped is pinned below as an ``@example``.
"""

import dataclasses
import struct

from hypothesis import example, given, settings

from repro.abe.hybrid import HybridCPABE
from repro.abe.serialize import (
    deserialize_ciphertext,
    deserialize_hybrid,
    serialize_ciphertext,
    serialize_hybrid,
)
from repro.crypto.group import PairingGroup
from repro.errors import ReproError

from ..crypto.reference import small_order_point
from ..hostile import hostile, prefixed_fields

GROUP = PairingGroup("TOY")
SCHEME = HybridCPABE(GROUP)
PUBLIC, _MASTER = SCHEME.setup()
POLICIES = ("org:acme", "a and b", "2 of (a, b, c)", "(a or b) and c")
PLAIN_HYBRIDS = [
    SCHEME.encrypt(PUBLIC, payload, policy)
    for policy, payload in zip(POLICIES, (b"", b"payload", b"x" * 40, b"\x00"))
]
PLAIN_CIPHERTEXTS = [SCHEME.abe.encrypt(PUBLIC, GROUP.random_gt(), policy) for policy in POLICIES]


def _shifted(ciphertext, torsion, target: str):
    """``ciphertext`` with a small-order part on ``C``, or on the first
    leaf's ``C_y`` or ``C'_y``."""
    if target == "C":
        return dataclasses.replace(ciphertext, c=ciphertext.c + torsion)
    (attribute, c_y, c_y_prime), *rest = ciphertext.leaf_components
    if target == "C_y":
        c_y += torsion
    else:
        c_y_prime += torsion
    return dataclasses.replace(ciphertext, leaf_components=((attribute, c_y, c_y_prime), *rest))


# beside the valid encodings, ones whose points carry a small-order part:
# they decode (the curve is checked, not the subgroup) and change no
# plaintext (tests/crypto/test_small_order_points.py)
SHIFTED = [
    _shifted(PLAIN_CIPHERTEXTS[1], small_order_point(order), target)
    for order, target in ((2, "C"), (3, "C_y"), (900, "C'_y"))
]
HYBRIDS = [serialize_hybrid(GROUP, hybrid) for hybrid in PLAIN_HYBRIDS] + [
    serialize_hybrid(GROUP, dataclasses.replace(PLAIN_HYBRIDS[1], kem=kem)) for kem in SHIFTED
]
CIPHERTEXTS = [serialize_ciphertext(GROUP, c) for c in PLAIN_CIPHERTEXTS + SHIFTED]


def ciphertext_fields(blob: bytes, offset: int = 0) -> list[tuple[int, str]]:
    """Policy, C~ and C lengths, the leaf count, then three lengths a leaf."""
    fields, offset = prefixed_fields(blob, offset, 3)
    (leaves,) = struct.unpack_from(">I", blob, offset)
    return fields + [(offset, ">I")] + prefixed_fields(blob, offset + 4, 3 * leaves)[0]


def hybrid_fields(blob: bytes) -> list[tuple[int, str]]:
    """The KEM and DEM lengths, and every length inside the KEM."""
    return prefixed_fields(blob, 0, 2)[0] + ciphertext_fields(blob, 4)


def _c_tilde_at(blob: bytes) -> int:
    return 4 + struct.unpack_from(">I", blob)[0] + 4


# found by the property (accepted, but re-encoded differently: two byte
# strings for one ciphertext), now rejected by ``deserialize_ciphertext``
TRAILING_BYTES = CIPHERTEXTS[0] + CIPHERTEXTS[1][-7:]
GT_COORDINATE_ABOVE_Q = (
    CIPHERTEXTS[2][: _c_tilde_at(CIPHERTEXTS[2])]
    + b"\xff" * GROUP.params.q_bytes
    + CIPHERTEXTS[2][_c_tilde_at(CIPHERTEXTS[2]) + GROUP.params.q_bytes :]
)
POLICY_KEYWORD_CASE = HYBRIDS[3].replace(b") and c", b") And c", 1)


def round_trips_or_is_rejected(blob, decode, encode):
    try:
        value = decode(GROUP, blob)
    except ReproError:
        return
    assert encode(GROUP, value) == blob


@settings(max_examples=300, deadline=None)
@given(hostile(CIPHERTEXTS, ciphertext_fields))
@example(TRAILING_BYTES)
@example(GT_COORDINATE_ABOVE_Q)
def test_hostile_ciphertext_round_trips_or_is_rejected(blob):
    round_trips_or_is_rejected(blob, deserialize_ciphertext, serialize_ciphertext)


@settings(max_examples=300, deadline=None)
@given(hostile(HYBRIDS, hybrid_fields))
@example(POLICY_KEYWORD_CASE)
def test_hostile_hybrid_round_trips_or_is_rejected(blob):
    round_trips_or_is_rejected(blob, deserialize_hybrid, serialize_hybrid)
