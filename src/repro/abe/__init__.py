"""Ciphertext-Policy Attribute-Based Encryption (BSW07) with policy language.

Public API::

    from repro.abe.hybrid import HybridCPABE
    from repro.crypto import PairingGroup

    group = PairingGroup("TOY")
    scheme = HybridCPABE(group)
    public, master = scheme.setup()
    key = scheme.keygen(master, {"org:acme", "role:analyst"})
    ct = scheme.encrypt(public, b"payload", "org:acme and role:analyst")
    assert scheme.decrypt(key, ct) == b"payload"
"""
