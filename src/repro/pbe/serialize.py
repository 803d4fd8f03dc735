"""Serialization for HVE tokens and ciphertexts: one wire form each."""

from __future__ import annotations

import struct

from ..crypto.group import PairingGroup
from ..errors import SerializationError
from ..reader import Reader
from .hve import HVECiphertext, HVEToken

__all__ = [
    "serialize_hve_ciphertext",
    "deserialize_hve_ciphertext",
    "serialize_hve_token",
    "deserialize_hve_token",
]


def serialize_hve_ciphertext(group: PairingGroup, ciphertext: HVECiphertext) -> bytes:
    """The one wire form: a zero byte, ``n``, the sealed length, the 2n
    points (``x`` then ``w``) and the sealed payload."""
    parts = [struct.pack(">BII", 0, ciphertext.n, len(ciphertext.sealed))]
    for point in (*ciphertext.x_components, *ciphertext.w_components):
        parts.append(group.serialize_g1(point))
    parts.append(ciphertext.sealed)
    return b"".join(parts)


def deserialize_hve_ciphertext(group: PairingGroup, data: bytes, n: int) -> HVECiphertext:
    """Decode a ciphertext the receiver expects to be ``n`` positions long.

    The leading byte, ``n`` and the exact length are checked in that order,
    before the first (costly, on-curve checked) point is decoded."""
    reader = Reader(data, SerializationError)
    leading = reader.u8()
    if leading != 0:
        raise SerializationError(f"unknown HVE ciphertext leading byte {leading:#x}")
    if reader.u32() != n:
        raise SerializationError(f"HVE ciphertext must be {n} positions long")
    sealed_len, point_len = reader.u32(), group.g1_bytes
    if reader.remaining != 2 * n * point_len + sealed_len:
        raise SerializationError(
            f"HVE ciphertext must be {9 + 2 * n * point_len + sealed_len} bytes, got {len(data)}"
        )
    return HVECiphertext(
        n=n,
        x_components=tuple(group.deserialize_g1(reader.take(point_len)) for _ in range(n)),
        w_components=tuple(group.deserialize_g1(reader.take(point_len)) for _ in range(n)),
        sealed=reader.rest(),
    )


def serialize_hve_token(group: PairingGroup, token: HVEToken) -> bytes:
    parts = [struct.pack(">II", token.n, len(token.positions))]
    for position in token.positions:
        parts.append(struct.pack(">I", position))
    for first, second in token.components:
        parts.append(group.serialize_g1(first))
        parts.append(group.serialize_g1(second))
    return b"".join(parts)


def deserialize_hve_token(group: PairingGroup, data: bytes) -> HVEToken:
    reader = Reader(data, SerializationError)
    n, count = reader.u32(), reader.u32()
    point_len = group.g1_bytes
    if reader.remaining != count * (4 + 2 * point_len):
        raise SerializationError(
            f"HVE token must be {8 + count * (4 + 2 * point_len)} bytes, got {len(data)}"
        )
    positions = tuple(reader.u32() for _ in range(count))
    components = tuple(
        (group.deserialize_g1(reader.take(point_len)), group.deserialize_g1(reader.take(point_len)))
        for _ in range(count)
    )
    return HVEToken(n=n, positions=positions, components=components)
