"""Hybrid (KEM-DEM) CP-ABE for byte payloads.

P3S publishes ``CP-ABE-encrypted(GUID, payload)`` (paper §4.3).  Like the
original cpabe toolkit — which ABE-wraps an AES session key — we encrypt a
random GT element under the policy, derive a symmetric key from it, and
seal the actual bytes with :class:`~repro.crypto.symmetric.SecretBox`.

The ciphertext size follows the paper's model ``c_A = 2·V·k + m`` (V policy
attributes, k security parameter, m payload bytes) up to the constant AEAD
overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.group import PairingGroup
from ..crypto.symmetric import SecretBox
from ..errors import DecryptionError
from .bsw07 import CPABE, CPABECiphertext, CPABEPublicKey, CPABESecretKey
from .policy import PolicyNode

__all__ = ["HybridCPABE", "HybridCiphertext"]


@dataclass(frozen=True)
class HybridCiphertext:
    """ABE-wrapped session key + AEAD-sealed payload."""

    kem: CPABECiphertext
    sealed: bytes


class HybridCPABE:
    """KEM-DEM wrapper over :class:`CPABE` for arbitrary byte strings."""

    def __init__(self, group: PairingGroup):
        self.group = group
        self.abe = CPABE(group)

    def setup(self):
        return self.abe.setup()

    def keygen(self, master, attributes: set[str]) -> CPABESecretKey:
        return self.abe.keygen(master, attributes)

    def encrypt(
        self, public: CPABEPublicKey, payload: bytes, policy: PolicyNode | str
    ) -> HybridCiphertext:
        session_element = self.group.random_gt()
        kem = self.abe.encrypt(public, session_element, policy)
        key = self.group.gt_to_key(session_element, "cpabe-dem")
        sealed = SecretBox(key).seal(payload)
        return HybridCiphertext(kem=kem, sealed=sealed)

    def decrypt(self, key: CPABESecretKey, ciphertext: HybridCiphertext) -> bytes:
        session_element = self.abe.decrypt(key, ciphertext.kem)
        dem_key = self.group.gt_to_key(session_element, "cpabe-dem")
        try:
            return SecretBox(dem_key).open(ciphertext.sealed)
        except DecryptionError as exc:
            raise DecryptionError(f"CP-ABE DEM failed: {exc}") from exc
