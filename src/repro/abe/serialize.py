"""Serialization for CP-ABE ciphertexts.

Wire formats are fixed-width and length-prefixed so that (a) every object
round-trips exactly and (b) the byte sizes feeding the performance models
come from real encodings rather than estimates.
"""

from __future__ import annotations

import struct

from ..crypto.field import Fq2
from ..crypto.group import PairingGroup
from ..errors import NotOnCurveError, ParameterError, PolicyError, SerializationError
from .bsw07 import CPABECiphertext
from .hybrid import HybridCiphertext
from .policy import parse_policy, policy_to_string

__all__ = [
    "serialize_ciphertext",
    "deserialize_ciphertext",
    "serialize_hybrid",
    "deserialize_hybrid",
]


def _pack_bytes(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def _unpack_bytes(buffer: bytes, offset: int) -> tuple[bytes, int]:
    if offset + 4 > len(buffer):
        raise SerializationError("truncated length prefix")
    (length,) = struct.unpack_from(">I", buffer, offset)
    offset += 4
    if offset + length > len(buffer):
        raise SerializationError("truncated field")
    return buffer[offset : offset + length], offset + length


def serialize_ciphertext(group: PairingGroup, ciphertext: CPABECiphertext) -> bytes:
    parts = [
        _pack_bytes(policy_to_string(ciphertext.policy).encode("utf-8")),
        _pack_bytes(group.serialize_gt(ciphertext.c_tilde)),
        _pack_bytes(group.serialize_g1(ciphertext.c)),
        struct.pack(">I", len(ciphertext.leaf_components)),
    ]
    for attribute, c_y, c_y_prime in ciphertext.leaf_components:
        parts.append(_pack_bytes(attribute.encode("utf-8")))
        parts.append(_pack_bytes(group.serialize_g1(c_y)))
        parts.append(_pack_bytes(group.serialize_g1(c_y_prime)))
    return b"".join(parts)


def deserialize_ciphertext(group: PairingGroup, data: bytes) -> CPABECiphertext:
    """Decode one ciphertext, or raise :class:`SerializationError`.

    The bytes come from a publisher by way of the RS, so whatever is wrong
    with them — framing, trailing bytes, a point off the curve, a GT
    coordinate not below q, policy text that does not parse or is not the
    encoder's spelling, leaf labels that do not name the policy's leaves
    one for one — is reported as the one error a receiver handles.  What
    decodes re-encodes to the bytes it came from.
    """
    try:
        policy_text, offset = _unpack_bytes(data, 0)
        c_tilde_raw, offset = _unpack_bytes(data, offset)
        c_raw, offset = _unpack_bytes(data, offset)
        if offset + 4 > len(data):
            raise SerializationError("truncated leaf count")
        (leaf_count,) = struct.unpack_from(">I", data, offset)
        offset += 4
        leaves = []
        for _ in range(leaf_count):
            attribute_raw, offset = _unpack_bytes(data, offset)
            c_y_raw, offset = _unpack_bytes(data, offset)
            c_y_prime_raw, offset = _unpack_bytes(data, offset)
            leaves.append(
                (
                    attribute_raw.decode("utf-8"),
                    group.deserialize_g1(c_y_raw),
                    group.deserialize_g1(c_y_prime_raw),
                )
            )
        if offset != len(data):
            raise SerializationError("trailing bytes after CP-ABE ciphertext")
        policy = parse_policy(policy_text.decode("utf-8"))
        if policy_to_string(policy).encode("utf-8") != policy_text:
            raise SerializationError("policy text is not in canonical form")
        ciphertext = CPABECiphertext(
            policy=policy,
            c_tilde=group.deserialize_gt(c_tilde_raw),
            c=group.deserialize_g1(c_raw),
            leaf_components=tuple(leaves),
        )
    except (NotOnCurveError, ParameterError, PolicyError, UnicodeDecodeError) as exc:
        raise SerializationError(f"malformed CP-ABE ciphertext: {exc}") from exc
    if not ciphertext.labels_match_policy():
        raise SerializationError("leaf components do not match policy")
    return ciphertext


def serialize_hybrid(group: PairingGroup, ciphertext: HybridCiphertext) -> bytes:
    return _pack_bytes(serialize_ciphertext(group, ciphertext.kem)) + _pack_bytes(
        ciphertext.sealed
    )


def deserialize_hybrid(group: PairingGroup, data: bytes) -> HybridCiphertext:
    kem_raw, offset = _unpack_bytes(data, 0)
    sealed, offset = _unpack_bytes(data, offset)
    if offset != len(data):
        raise SerializationError("trailing bytes after hybrid ciphertext")
    return HybridCiphertext(kem=deserialize_ciphertext(group, kem_raw), sealed=sealed)
