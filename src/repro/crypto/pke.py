"""Public-key encryption: a trace-Diffie-Hellman KEM in GT plus a DEM.

P3S encrypts ``(K_s, certificate, predicate)`` to the PBE-TS key and
``(K_s, GUID)`` to the RS key (paper §4.3; the prototype used TLS/RSA
certificates).  A key is ``Y = ĝ^sk`` in GT; a ciphertext is the trace
``t = Tr(ĝ^eph)`` and a :class:`~repro.crypto.symmetric.SecretBox` seal
under ``KDF(Tr(Y^eph))``; decryption computes ``Tr(Y^eph) = V_sk(t)``
by a Lucas ladder.  ``t`` must pass ``t ≠ 2`` and ``V_r(t) = 2`` (order
exactly ``r``) before the DEM is tried.  docs/PROTOCOL.md, "Servers'
PKE", has the security argument.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DecryptionError
from .field import Fq2, lucas_ladder
from .group import PairingGroup
from .hashing import kdf
from .symmetric import OVERHEAD, SecretBox

__all__ = ["PKEKeyPair", "PKEPublicKey", "pke_overhead"]

KDF_LABEL = "pke-trace-dem"


def _trace(element: Fq2) -> int:
    return 2 * element.a % element.q


def _of_order_r(trace: int, group: PairingGroup) -> bool:
    """Whether ``trace`` is the trace of an element of GT other than 1."""
    q = group.params.q
    return trace < q and trace != 2 and lucas_ladder(trace, group.order, q)[0] == 2


@dataclass(frozen=True)
class PKEPublicKey:
    """An encryption-only public key ``Y = ĝ^sk``."""

    group: PairingGroup
    element: Fq2

    def encrypt(self, plaintext: bytes) -> bytes:
        """``Tr(ĝ^eph) || SecretBox_{KDF(Tr(Y^eph))}(plaintext)``, both
        powers served from the shared comb tables."""
        group, eph, width = self.group, self.group.random_zr(), self.group.params.q_bytes
        key = kdf(_trace(self.element**eph).to_bytes(width, "big"), KDF_LABEL)
        ephemeral = _trace(group.gt_generator**eph).to_bytes(width, "big")
        return ephemeral + SecretBox(key).seal(plaintext)

    def to_bytes(self) -> bytes:
        return self.group.serialize_gt(self.element)


class PKEKeyPair:
    """Key pair for the trace-DH scheme; holds the secret exponent."""

    def __init__(self, group: PairingGroup):
        self.group = group
        self._secret = group.random_zr()
        self.public = PKEPublicKey(group, group.gt_generator**self._secret)

    def decrypt(self, ciphertext: bytes) -> bytes:
        q, width = self.group.params.q, self.group.params.q_bytes
        if len(ciphertext) < width + OVERHEAD:
            # a DecryptionError like any bad ciphertext: request decoders refuse it cleanly
            raise DecryptionError("PKE ciphertext too short")
        trace = int.from_bytes(ciphertext[:width], "big")
        if not _of_order_r(trace, self.group):
            raise DecryptionError("ephemeral trace is not of an element of order r")
        shared = lucas_ladder(trace, self._secret, q)[0].to_bytes(width, "big")
        return SecretBox(kdf(shared, KDF_LABEL)).open(ciphertext[width:])


def pke_overhead(group: PairingGroup) -> int:
    """Ciphertext expansion in bytes (ephemeral trace + DEM overhead)."""
    return group.params.q_bytes + OVERHEAD
