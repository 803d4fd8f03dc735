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

from .field import Fq2
from .curve import Point, hash_to_point
from .group import PairingGroup
from .pairing import multi_pairing, tate_pairing
from .params import PAPER, PARAM_SETS, TEST, TOY, TypeAParams, generate_type_a_params
from .pke import PKEKeyPair, PKEPublicKey
from .signing import Certificate, Signature, SigningKeyPair, VerifyKey
from .symmetric import SecretBox
from .hashing import hash_bytes, hash_to_int, kdf

__all__ = [
    "Fq2",
    "Point",
    "hash_to_point",
    "PairingGroup",
    "multi_pairing",
    "tate_pairing",
    "TypeAParams",
    "generate_type_a_params",
    "TOY",
    "TEST",
    "PAPER",
    "PARAM_SETS",
    "PKEKeyPair",
    "PKEPublicKey",
    "SigningKeyPair",
    "VerifyKey",
    "Signature",
    "Certificate",
    "SecretBox",
    "hash_bytes",
    "hash_to_int",
    "kdf",
]
