"""Public-key encryption (ECIES-style KEM-DEM over G1).

P3S uses server public keys in two protocol steps (paper §4.3):

* the subscriber encrypts ``(K_s, certificate, predicate)`` to the
  **PBE-TS** public key when requesting a token, and
* the subscriber encrypts ``(K_s, GUID)`` to the **RS** public key when
  retrieving a payload.

The paper's prototype would use the servers' TLS/RSA certificates; we
provide the equivalent over the pairing group's G1 so no extra number
theory is needed: an ephemeral Diffie-Hellman KEM plus the
:class:`~repro.crypto.symmetric.SecretBox` DEM.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DecryptionError, ReproError
from .curve import Point
from .group import PairingGroup
from .hashing import kdf
from .symmetric import OVERHEAD, SecretBox

__all__ = ["PKEKeyPair", "PKEPublicKey", "pke_overhead"]


@dataclass(frozen=True)
class PKEPublicKey:
    """An encryption-only public key ``pk = sk·g``."""

    group: PairingGroup
    point: Point

    def encrypt(self, plaintext: bytes) -> bytes:
        """ECIES encrypt: ``eph·g || SecretBox_{KDF(eph·pk)}(plaintext)``."""
        eph = self.group.random_zr()
        ephemeral_public = self.group.generator * eph
        shared = self.point * eph
        key = kdf(self.group.serialize_g1(shared), "pke-dem")
        box = SecretBox(key)
        return self.group.serialize_g1(ephemeral_public) + box.seal(plaintext)

    def to_bytes(self) -> bytes:
        return self.group.serialize_g1(self.point)

    @classmethod
    def from_bytes(cls, data: bytes, group: PairingGroup) -> "PKEPublicKey":
        return cls(group, group.deserialize_g1(data))


class PKEKeyPair:
    """Key pair for the ECIES-style scheme; holds the secret scalar."""

    def __init__(self, group: PairingGroup, secret: int | None = None):
        self.group = group
        self._secret = secret if secret is not None else group.random_zr()
        self.public = PKEPublicKey(group, group.generator * self._secret)

    def decrypt(self, ciphertext: bytes) -> bytes:
        point_len = self.group.g1_bytes
        if len(ciphertext) < point_len + OVERHEAD:
            # a DecryptionError like every other bad ciphertext, so the
            # request decoders that feed this hostile bytes refuse cleanly
            raise DecryptionError("PKE ciphertext too short")
        try:
            ephemeral_public = self.group.deserialize_g1(ciphertext[:point_len])
        except ReproError as exc:  # not a canonical encoding, or not on the curve
            raise DecryptionError(f"bad ephemeral point: {exc}") from exc
        shared = ephemeral_public * self._secret
        key = kdf(self.group.serialize_g1(shared), "pke-dem")
        return SecretBox(key).open(ciphertext[point_len:])


def pke_overhead(group: PairingGroup) -> int:
    """Ciphertext expansion in bytes (ephemeral point + DEM overhead)."""
    return group.g1_bytes + OVERHEAD
