"""Bit-level encoding of attribute values for the binary HVE alphabet.

The HVE construction P3S adopts restricts the alphabet to ``{0, 1}``
(paper §3.1).  To support "a metadata space of N attributes, each of which
may take one of 8 values, we construct the 3N-bit vector x where the first
3 bits encode the 1st attribute" — and "a wildcard spans all bits that
represent the attribute".  This module provides exactly that mapping,
generalised to any per-attribute domain size.
"""

from __future__ import annotations

from ..errors import SchemaError

__all__ = ["bits_needed", "encode_value", "wildcard_bits"]


def bits_needed(domain_size: int) -> int:
    """Bits required to encode an index in ``[0, domain_size)``."""
    if domain_size < 2:
        raise SchemaError("attribute domains need at least 2 values")
    return (domain_size - 1).bit_length()


def encode_value(index: int, domain_size: int) -> list[int]:
    """Fixed-width big-endian bit encoding of a value index."""
    width = bits_needed(domain_size)
    if not 0 <= index < domain_size:
        raise SchemaError(f"value index {index} out of range [0, {domain_size})")
    return [(index >> (width - 1 - position)) & 1 for position in range(width)]


def wildcard_bits(domain_size: int) -> list[None]:
    """A wildcard "spans all bits that represent the attribute" (§3.1)."""
    return [None] * bits_needed(domain_size)
