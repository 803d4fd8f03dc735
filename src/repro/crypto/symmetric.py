"""Symmetric authenticated encryption: SHAKE-256 keystream + HMAC-SHA256 (EtM).

The paper's prototype rides on JSSE/AES for its symmetric needs (TLS
links, the K_s super-encryption of PBE tokens and retrieved payloads, and
the DEM half of hybrid CP-ABE), at hardware speed.  AES is unavailable
offline, so :class:`SecretBox` stands in for it with the strongest
primitive the standard library runs at C speed: the keystream is the
SHAKE-256 XOF over ``enc_key || nonce``, XORed onto the message as one
big-integer operation, and the result is authenticated with HMAC-SHA256
(encrypt-then-MAC, tag checked before any keystream is produced).

Why a keyed XOF is a sound stream cipher here: ``enc_key`` (32 bytes)
and the nonce (12 bytes) have fixed lengths, so the XOF input is an
unambiguous 44-byte prefix and no two (key, nonce) pairs collide;
SHAKE-256's output under a secret 256-bit prefix is indistinguishable
from random (the sponge's keyed-prefix PRF use), which is all a
synchronous stream cipher asks of its generator.  The 96-bit nonce is
drawn fresh per seal; one box seals far fewer than the 2^32 messages up
to which a random 96-bit nonce is considered safe (SP 800-38D's bound).

It remains a stand-in for AES, with the same interface shape and the
same constant ciphertext expansion (nonce + tag), which is all the
performance models care about.
"""

from __future__ import annotations

import hmac
import hashlib

from ..errors import IntegrityError, ParameterError
from .hashing import kdf
from .randomness import draw_bytes

__all__ = ["SecretBox", "KEY_LEN", "NONCE_LEN", "TAG_LEN", "OVERHEAD"]

KEY_LEN = 32
NONCE_LEN = 12
TAG_LEN = 32
OVERHEAD = NONCE_LEN + TAG_LEN


class SecretBox:
    """Authenticated symmetric encryption (encrypt-then-MAC).

    Wire format: ``nonce (12) || ciphertext || tag (32)``.  Independent
    encryption and MAC keys are derived from the box key with the KDF, so
    a single 32-byte secret is safe to use for both purposes.
    """

    def __init__(self, key: bytes):
        if len(key) != KEY_LEN:
            raise ParameterError(f"SecretBox key must be {KEY_LEN} bytes")
        # The labels carry the format version: a value sealed under the
        # version-1 keystream must fail the tag, not authenticate and then
        # XOR to noise.
        self._enc_key = kdf(key, "secretbox2-enc")
        self._mac_key = kdf(key, "secretbox2-mac")

    @classmethod
    def generate_key(cls) -> bytes:
        return draw_bytes("key", KEY_LEN)

    def seal(self, plaintext: bytes, associated_data: bytes = b"") -> bytes:
        nonce = draw_bytes("nonce", NONCE_LEN)
        ciphertext = self._keystream_xor(nonce, plaintext)
        tag = self._tag(nonce, ciphertext, associated_data)
        return nonce + ciphertext + tag

    def open(self, boxed: bytes, associated_data: bytes = b"") -> bytes:
        if len(boxed) < OVERHEAD:
            raise IntegrityError("ciphertext too short")
        nonce = boxed[:NONCE_LEN]
        ciphertext = boxed[NONCE_LEN:-TAG_LEN]
        tag = boxed[-TAG_LEN:]
        expected = self._tag(nonce, ciphertext, associated_data)
        if not hmac.compare_digest(tag, expected):
            raise IntegrityError("MAC verification failed")
        return self._keystream_xor(nonce, ciphertext)

    def _keystream_xor(self, nonce: bytes, data: bytes) -> bytes:
        """XOR ``data`` with the keystream (encryption == decryption)."""
        size = len(data)
        stream = hashlib.shake_256(self._enc_key + nonce).digest(size)
        mixed = int.from_bytes(data, "little") ^ int.from_bytes(stream, "little")
        return mixed.to_bytes(size, "little")

    def _tag(self, nonce: bytes, ciphertext: bytes, associated_data: bytes) -> bytes:
        message = len(associated_data).to_bytes(8, "big") + associated_data + nonce + ciphertext
        return hmac.digest(self._mac_key, message, "sha256")
