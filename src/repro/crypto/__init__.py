"""Cryptographic substrate: pairing groups, AEAD, PKE, signatures.

Everything the P3S schemes need, implemented from scratch:

* :class:`~repro.crypto.group.PairingGroup` — Type-A symmetric pairing
  (supersingular curve, modified Tate pairing) with three parameter sets.
* :class:`~repro.crypto.symmetric.SecretBox` — SHAKE-256 keystream +
  HMAC-SHA256 encrypt-then-MAC AEAD (the stand-in for the paper's AES).
* :class:`~repro.crypto.pke.PKEKeyPair` — ECIES-style public-key encryption.
* :class:`~repro.crypto.signing.SigningKeyPair` / ``Certificate`` — Schnorr
  signatures and ARA-issued participant certificates.
"""

from .group import PairingGroup

__all__ = ["PairingGroup"]
