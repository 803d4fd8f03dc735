"""Serialization for CP-ABE ciphertexts.

Wire formats are fixed-width and length-prefixed so that (a) every object
round-trips exactly and (b) the byte sizes feeding the performance models
come from real encodings rather than estimates.
"""

from __future__ import annotations

from ..crypto.group import PairingGroup
from ..errors import NotOnCurveError, PolicyError, SerializationError
from ..reader import Reader, prefixed
from .bsw07 import CPABECiphertext
from .hybrid import HybridCiphertext
from .policy import parse_policy, policy_to_string

__all__ = [
    "serialize_ciphertext",
    "deserialize_ciphertext",
    "serialize_hybrid",
    "deserialize_hybrid",
]


def serialize_ciphertext(group: PairingGroup, ciphertext: CPABECiphertext) -> bytes:
    parts = [
        prefixed(policy_to_string(ciphertext.policy).encode("utf-8")),
        prefixed(group.serialize_gt(ciphertext.c_tilde)),
        prefixed(group.serialize_g1(ciphertext.c)),
        len(ciphertext.leaf_components).to_bytes(4, "big"),
    ]
    for attribute, c_y, c_y_prime in ciphertext.leaf_components:
        parts.append(prefixed(attribute.encode("utf-8")))
        parts.append(prefixed(group.serialize_g1(c_y)))
        parts.append(prefixed(group.serialize_g1(c_y_prime)))
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
    reader = Reader(data, SerializationError)
    try:
        policy_text = reader.utf8(reader.u32())
        c_tilde_raw, c_raw = reader.prefixed(), reader.prefixed()
        leaves = tuple(
            (
                reader.utf8(reader.u32()),
                group.deserialize_g1(reader.prefixed()),
                group.deserialize_g1(reader.prefixed()),
            )
            for _ in range(reader.count(reader.u32(), 12))  # three length prefixes a leaf
        )
        reader.end()
        policy = parse_policy(policy_text)
        if policy_to_string(policy) != policy_text:
            raise SerializationError("policy text is not in canonical form")
        ciphertext = CPABECiphertext(
            policy=policy,
            c_tilde=group.deserialize_gt(c_tilde_raw),
            c=group.deserialize_g1(c_raw),
            leaf_components=leaves,
        )
    except (NotOnCurveError, PolicyError) as exc:
        raise SerializationError(f"malformed CP-ABE ciphertext: {exc}") from exc
    if not ciphertext.labels_match_policy():
        raise SerializationError("leaf components do not match policy")
    return ciphertext


def serialize_hybrid(group: PairingGroup, ciphertext: HybridCiphertext) -> bytes:
    return prefixed(serialize_ciphertext(group, ciphertext.kem)) + prefixed(
        ciphertext.sealed
    )


def deserialize_hybrid(group: PairingGroup, data: bytes) -> HybridCiphertext:
    reader = Reader(data, SerializationError)
    kem_raw, sealed = reader.prefixed(), reader.prefixed()
    reader.end()
    return HybridCiphertext(kem=deserialize_ciphertext(group, kem_raw), sealed=sealed)
