"""Predicate-Based Encryption: IP08 HVE over per-position alphabets, plus the
P3S metadata-space mapping.

Public API::

    from repro.pbe import HVE, MetadataSchema, AttributeSpec, Interest, ANY

    schema = MetadataSchema([
        AttributeSpec("topic", ("m&a", "earnings", "litigation", "markets")),
        AttributeSpec("region", ("us", "eu", "apac", "latam")),
    ])
    hve = HVE(group)
    public, master = hve.setup(schema.alphabet_sizes)

    x = schema.encode_metadata({"topic": "m&a", "region": "us"})
    ct = hve.encrypt(public, x, guid)

    y = schema.encode_interest(Interest({"topic": "m&a"}))   # region: ANY
    token = hve.gen_token(master, y)
    assert hve.query(token, ct) == guid
"""

from .encoding import bits_needed, encode_value, wildcard_bits
from .hve import HVE, HVECiphertext, HVEMasterKey, HVEPublicKey, HVEToken, WILDCARD
from .schema import ANY, ENCODINGS, AttributeSpec, Interest, MetadataSchema
from .serialize import (
    deserialize_hve_ciphertext,
    deserialize_hve_token,
    hve_ciphertext_size,
    hve_token_size,
    serialize_hve_ciphertext,
    serialize_hve_token,
)

__all__ = [
    "HVE",
    "HVECiphertext",
    "HVEMasterKey",
    "HVEPublicKey",
    "HVEToken",
    "WILDCARD",
    "ANY",
    "ENCODINGS",
    "AttributeSpec",
    "Interest",
    "MetadataSchema",
    "bits_needed",
    "encode_value",
    "wildcard_bits",
    "serialize_hve_ciphertext",
    "deserialize_hve_ciphertext",
    "serialize_hve_token",
    "deserialize_hve_token",
    "hve_ciphertext_size",
    "hve_token_size",
]
