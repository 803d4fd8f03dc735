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

from .hve import HVE
from .schema import ANY, ENCODINGS, AttributeSpec, Interest, MetadataSchema

__all__ = ["HVE", "ANY", "ENCODINGS", "AttributeSpec", "Interest", "MetadataSchema"]
