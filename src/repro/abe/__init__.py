"""Ciphertext-Policy Attribute-Based Encryption (BSW07) with policy language.

Public API::

    from repro.abe import CPABE, HybridCPABE, parse_policy

    group = PairingGroup("TOY")
    scheme = HybridCPABE(group)
    public, master = scheme.setup()
    key = scheme.keygen(master, {"org:acme", "role:analyst"})
    ct = scheme.encrypt(public, b"payload", "org:acme and role:analyst")
    assert scheme.decrypt(key, ct) == b"payload"
"""

from .policy import PolicyNode, parse_policy, policy_to_string
from .bsw07 import CPABE, CPABECiphertext, CPABEMasterKey, CPABEPublicKey, CPABESecretKey
from .hybrid import HybridCPABE, HybridCiphertext
from .serialize import (
    deserialize_ciphertext,
    deserialize_hybrid,
    serialize_ciphertext,
    serialize_hybrid,
)

__all__ = [
    "PolicyNode",
    "parse_policy",
    "policy_to_string",
    "CPABE",
    "CPABECiphertext",
    "CPABEMasterKey",
    "CPABEPublicKey",
    "CPABESecretKey",
    "HybridCPABE",
    "HybridCiphertext",
    "serialize_ciphertext",
    "deserialize_ciphertext",
    "serialize_hybrid",
    "deserialize_hybrid",
]
