"""Serialization for CP-ABE keys and ciphertexts.

Wire formats are fixed-width and length-prefixed so that (a) every object
round-trips exactly and (b) the byte sizes feeding the performance models
come from real encodings rather than estimates.
"""

from __future__ import annotations

import struct

from ..crypto.field import Fq2
from ..crypto.group import PairingGroup
from ..errors import NotOnCurveError, ParameterError, PolicyError, SerializationError
from .bsw07 import CPABECiphertext, CPABEMasterKey, CPABEPublicKey, CPABESecretKey
from .hybrid import HybridCiphertext
from .policy import parse_policy, policy_to_string

__all__ = [
    "serialize_ciphertext",
    "deserialize_ciphertext",
    "serialize_secret_key",
    "deserialize_secret_key",
    "serialize_public_key",
    "deserialize_public_key",
    "serialize_master_key",
    "deserialize_master_key",
    "serialize_hybrid",
    "deserialize_hybrid",
    "cpabe_ciphertext_size",
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
    with them — framing, a point off the curve, policy text that does not
    parse, leaf labels that do not name the policy's leaves one for one —
    is reported as the one error a receiver handles.
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
        ciphertext = CPABECiphertext(
            policy=parse_policy(policy_text.decode("utf-8")),
            c_tilde=group.deserialize_gt(c_tilde_raw),
            c=group.deserialize_g1(c_raw),
            leaf_components=tuple(leaves),
        )
    except (NotOnCurveError, ParameterError, PolicyError, UnicodeDecodeError) as exc:
        raise SerializationError(f"malformed CP-ABE ciphertext: {exc}") from exc
    if not ciphertext.labels_match_policy():
        raise SerializationError("leaf components do not match policy")
    return ciphertext


def serialize_secret_key(group: PairingGroup, key: CPABESecretKey) -> bytes:
    parts = [_pack_bytes(group.serialize_g1(key.d)), struct.pack(">I", len(key.components))]
    for attribute in sorted(key.components):
        d_j, d_j_prime = key.components[attribute]
        parts.append(_pack_bytes(attribute.encode("utf-8")))
        parts.append(_pack_bytes(group.serialize_g1(d_j)))
        parts.append(_pack_bytes(group.serialize_g1(d_j_prime)))
    return b"".join(parts)


def deserialize_secret_key(group: PairingGroup, data: bytes) -> CPABESecretKey:
    d_raw, offset = _unpack_bytes(data, 0)
    if offset + 4 > len(data):
        raise SerializationError("truncated component count")
    (count,) = struct.unpack_from(">I", data, offset)
    offset += 4
    components = {}
    for _ in range(count):
        attribute_raw, offset = _unpack_bytes(data, offset)
        d_j_raw, offset = _unpack_bytes(data, offset)
        d_j_prime_raw, offset = _unpack_bytes(data, offset)
        components[attribute_raw.decode("utf-8")] = (
            group.deserialize_g1(d_j_raw),
            group.deserialize_g1(d_j_prime_raw),
        )
    return CPABESecretKey(
        attributes=frozenset(components),
        d=group.deserialize_g1(d_raw),
        components=components,
    )


def serialize_public_key(group: PairingGroup, public: CPABEPublicKey) -> bytes:
    """PK_C — what the ARA ships to publishers (Fig. 2)."""
    return (
        _pack_bytes(group.serialize_g1(public.g))
        + _pack_bytes(group.serialize_g1(public.h))
        + _pack_bytes(group.serialize_g1(public.f))
        + _pack_bytes(group.serialize_gt(public.e_gg_alpha))
    )


def deserialize_public_key(group: PairingGroup, data: bytes) -> CPABEPublicKey:
    g_raw, offset = _unpack_bytes(data, 0)
    h_raw, offset = _unpack_bytes(data, offset)
    f_raw, offset = _unpack_bytes(data, offset)
    egg_raw, offset = _unpack_bytes(data, offset)
    if offset != len(data):
        raise SerializationError("trailing bytes after CP-ABE public key")
    return CPABEPublicKey(
        g=group.deserialize_g1(g_raw),
        h=group.deserialize_g1(h_raw),
        f=group.deserialize_g1(f_raw),
        e_gg_alpha=group.deserialize_gt(egg_raw),
    )


def serialize_master_key(group: PairingGroup, master: CPABEMasterKey) -> bytes:
    """MSK — held by the ARA only; serialized for at-rest storage."""
    return master.beta.to_bytes(group.zr_bytes, "big") + group.serialize_g1(master.g_alpha)


def deserialize_master_key(group: PairingGroup, data: bytes) -> CPABEMasterKey:
    width = group.zr_bytes
    if len(data) != width + group.g1_bytes:
        raise SerializationError("bad CP-ABE master key length")
    return CPABEMasterKey(
        beta=int.from_bytes(data[:width], "big"),
        g_alpha=group.deserialize_g1(data[width:]),
    )


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


def cpabe_ciphertext_size(group: PairingGroup, num_leaves: int, payload_len: int, policy_text_len: int = 0) -> int:
    """Exact wire size of a hybrid CP-ABE ciphertext.

    Mirrors the paper's ``c_A ≈ 2·V·k + m`` model: two G1 elements per
    policy leaf plus the GT header and the AEAD-sealed payload.
    """
    from ..crypto.symmetric import OVERHEAD

    kem = (
        4 + policy_text_len
        + 4 + group.gt_bytes
        + 4 + group.g1_bytes
        + 4
        + num_leaves * (4 + 16 + 2 * (4 + group.g1_bytes))  # ~16-byte attribute names
    )
    return 4 + kem + 4 + payload_len + OVERHEAD
