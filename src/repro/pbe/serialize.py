"""Serialization for HVE tokens and ciphertexts (byte-accurate sizes)."""

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
    reader = Reader(data, SerializationError)
    flags, n, sealed_len = reader.u8(), reader.u32(), reader.u32()
    if flags not in (0, 1):
        raise SerializationError(f"unknown HVE ciphertext flags {flags:#x}")
    compressed = flags == 1
    point_len = group.g1_bytes_compressed if compressed else group.g1_bytes
    decode = group.deserialize_g1_compressed if compressed else group.deserialize_g1
    # the exact length before the first (costly, on-curve checked) point
    if reader.remaining != 2 * n * point_len + sealed_len:
        raise SerializationError(
            f"HVE ciphertext must be {9 + 2 * n * point_len + sealed_len} bytes, got {len(data)}"
        )
    return HVECiphertext(
        n=n,
        x_components=tuple(decode(reader.take(point_len)) for _ in range(n)),
        w_components=tuple(decode(reader.take(point_len)) for _ in range(n)),
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


def hve_ciphertext_size(group: PairingGroup, n: int, payload_len: int) -> int:
    """Exact wire size: header + 2n uncompressed G1 elements + AEAD-sealed
    payload.

    At PAPER parameters with the paper's 40-bit metadata spec this is the
    "~10KB encrypted metadata" that dominates P3S dissemination cost.
    """
    from ..crypto.symmetric import OVERHEAD

    return 9 + 2 * n * group.g1_bytes + payload_len + OVERHEAD


def hve_token_size(group: PairingGroup, num_positions: int) -> int:
    return 8 + 4 * num_positions + 2 * num_positions * group.g1_bytes
