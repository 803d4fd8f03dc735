"""Serialization for HVE tokens and ciphertexts (byte-accurate sizes)."""

from __future__ import annotations

import struct

from ..crypto.group import PairingGroup
from ..errors import SerializationError
from .hve import HVECiphertext, HVEToken

__all__ = [
    "serialize_hve_ciphertext",
    "deserialize_hve_ciphertext",
    "serialize_hve_token",
    "deserialize_hve_token",
    "hve_ciphertext_size",
    "hve_token_size",
]


def serialize_hve_ciphertext(
    group: PairingGroup, ciphertext: HVECiphertext, compressed: bool = False
) -> bytes:
    """Wire form; ``compressed`` halves the per-point footprint at the cost
    of one square root per point on deserialization (see the size/speed
    ablation in ``benchmarks/bench_ablation_compression.py``)."""
    encode = group.serialize_g1_compressed if compressed else group.serialize_g1
    flags = 1 if compressed else 0
    parts = [struct.pack(">BII", flags, ciphertext.n, len(ciphertext.sealed))]
    for point in ciphertext.x_components:
        parts.append(encode(point))
    for point in ciphertext.w_components:
        parts.append(encode(point))
    parts.append(ciphertext.sealed)
    return b"".join(parts)


def deserialize_hve_ciphertext(group: PairingGroup, data: bytes) -> HVECiphertext:
    if len(data) < 9:
        raise SerializationError("HVE ciphertext too short")
    flags, n, sealed_len = struct.unpack_from(">BII", data, 0)
    if flags not in (0, 1):
        raise SerializationError(f"unknown HVE ciphertext flags {flags:#x}")
    compressed = flags == 1
    point_len = group.g1_bytes_compressed if compressed else group.g1_bytes
    decode = group.deserialize_g1_compressed if compressed else group.deserialize_g1
    expected = 9 + 2 * n * point_len + sealed_len
    if len(data) != expected:
        raise SerializationError(f"HVE ciphertext must be {expected} bytes, got {len(data)}")
    offset = 9
    x_components = []
    for _ in range(n):
        x_components.append(decode(data[offset : offset + point_len]))
        offset += point_len
    w_components = []
    for _ in range(n):
        w_components.append(decode(data[offset : offset + point_len]))
        offset += point_len
    return HVECiphertext(
        n=n,
        x_components=tuple(x_components),
        w_components=tuple(w_components),
        sealed=data[offset:],
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
    if len(data) < 8:
        raise SerializationError("HVE token too short")
    n, count = struct.unpack_from(">II", data, 0)
    point_len = group.g1_bytes
    expected = 8 + 4 * count + 2 * count * point_len
    if len(data) != expected:
        raise SerializationError(f"HVE token must be {expected} bytes, got {len(data)}")
    offset = 8
    positions = []
    for _ in range(count):
        (position,) = struct.unpack_from(">I", data, offset)
        positions.append(position)
        offset += 4
    components = []
    for _ in range(count):
        first = group.deserialize_g1(data[offset : offset + point_len])
        offset += point_len
        second = group.deserialize_g1(data[offset : offset + point_len])
        offset += point_len
        components.append((first, second))
    return HVEToken(n=n, positions=tuple(positions), components=tuple(components))


def hve_ciphertext_size(
    group: PairingGroup, n: int, payload_len: int, compressed: bool = False
) -> int:
    """Exact wire size: header + 2n G1 elements + AEAD-sealed payload.

    At PAPER parameters with the paper's 40-bit metadata spec this is the
    "~10KB encrypted metadata" that dominates P3S dissemination cost.
    """
    from ..crypto.symmetric import OVERHEAD

    point_len = group.g1_bytes_compressed if compressed else group.g1_bytes
    return 9 + 2 * n * point_len + payload_len + OVERHEAD


def hve_token_size(group: PairingGroup, num_positions: int) -> int:
    return 8 + 4 * num_positions + 2 * num_positions * group.g1_bytes
