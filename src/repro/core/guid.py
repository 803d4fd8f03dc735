"""Globally-unique identifiers for publications.

Paper §4.3: the publisher "generates a unique GUID from a large space
(making it hard to guess)".  The GUID is the *only* link between the
PBE-encrypted metadata and the CP-ABE-encrypted payload stored at the RS,
so guessability would let non-matching parties fetch payloads.
"""

from __future__ import annotations

from ..crypto.randomness import draw_bytes

__all__ = ["GUID_BYTES", "random_guid"]

GUID_BYTES = 16  # 128-bit space; paper's model uses ~10-byte GUIDs


def random_guid() -> bytes:
    """A fresh unguessable GUID."""
    return draw_bytes("guid", GUID_BYTES)
