"""The one mutation strategy of every hostile-bytes property (ROADMAP item 1).

A decoder under the property either round-trips its input or rejects it
with a :class:`~repro.errors.ReproError` subclass.  Its inputs are valid
encodings mutated four ways: truncated, one bit flipped, one length field
set to a size the sender chose, or spliced with another encoding.  A
test names its encodings and where their length fields sit; a shape that
escapes is pinned in that test as an ``@example``.
"""

from __future__ import annotations

import struct
from typing import Callable

from hypothesis import strategies as st

HUGE = st.sampled_from([0xFFFFFFFF, 0x80000000, 0x7FFFFFFF, 0x01000000, 0xFFFF, 256, 5, 0])


@st.composite
def hostile(draw, blobs: list[bytes], length_fields: Callable[[bytes], list[tuple[int, str]]]):
    """One of ``blobs`` mutated; ``length_fields(blob)`` lists the
    ``(offset, struct format)`` of each length field in it (an encoding
    without one is never inflated)."""
    blob = draw(st.sampled_from(blobs))
    mutations = ["truncate", "flip", "splice"] + (["inflate"] if length_fields(blob) else [])
    mutation = draw(st.sampled_from(mutations))
    if mutation == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if mutation == "flip":
        at = draw(st.integers(0, len(blob) - 1))
        return blob[:at] + bytes([blob[at] ^ (1 << draw(st.integers(0, 7)))]) + blob[at + 1 :]
    if mutation == "inflate":
        at, layout = draw(st.sampled_from(length_fields(blob)))
        width = struct.calcsize(layout)
        size = draw(HUGE | st.integers(0, 0xFFFFFFFF)) % (1 << (8 * width))
        return blob[:at] + struct.pack(layout, size) + blob[at + width :]
    other = draw(st.sampled_from(blobs))
    return blob[: draw(st.integers(0, len(blob)))] + other[draw(st.integers(0, len(other))) :]


def prefixed_fields(blob: bytes, offset: int, count: int) -> tuple[list[tuple[int, str]], int]:
    """The ``>I`` prefixes of ``count`` consecutive length-prefixed fields
    from ``offset``, and the offset after them."""
    fields = []
    for _ in range(count):
        fields.append((offset, ">I"))
        offset += 4 + struct.unpack_from(">I", blob, offset)[0]
    return fields, offset
