"""Hashing utilities: domain-separated hashes, HKDF-style key derivation.

All hashing in the reproduction goes through these helpers so that every
use is domain-separated (no cross-protocol collisions) and so sizes/cost
accounting stays in one place.
"""

from __future__ import annotations

import hashlib
import hmac

__all__ = ["hash_bytes", "hash_to_int", "kdf"]

KDF_BYTES = 32  # every derived key is one 256-bit key


def hash_bytes(domain: str, *parts: bytes) -> bytes:
    """SHA-256 over length-prefixed parts under a domain-separation label."""
    h = hashlib.sha256()
    h.update(b"repro:" + domain.encode("utf-8") + b"\x00")
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.digest()


def hash_to_int(domain: str, modulus: int, *parts: bytes) -> int:
    """Hash to an integer in ``[0, modulus)`` with negligible bias.

    Expands with counter-mode SHA-256 to at least 128 bits beyond the
    modulus size before reducing.
    """
    need_bits = modulus.bit_length() + 128
    blocks = (need_bits + 255) // 256
    data = b"".join(
        hash_bytes(domain, counter.to_bytes(4, "big"), *parts) for counter in range(blocks)
    )
    return int.from_bytes(data, "big") % modulus


def kdf(secret: bytes, label: str) -> bytes:
    """HKDF-style extract-and-expand keyed on HMAC-SHA256 (zero salt):
    :data:`KDF_BYTES` bytes of key for ``label``."""
    length = KDF_BYTES
    prk = hmac.digest(b"\x00" * 32, secret, "sha256")
    output = b""
    block = b""
    counter = 1
    info = b"repro:kdf:" + label.encode("utf-8")
    while len(output) < length:
        block = hmac.digest(prk, block + info + bytes([counter]), "sha256")
        output += block
        counter += 1
    return output[:length]
