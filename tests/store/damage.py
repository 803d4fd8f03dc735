"""Damage to a WAL store file of the kinds a crash or a bad disk leaves:
a torn tail, a flipped payload bit, a garbage length field.  The
recovery tests reopen the damaged file and check what survives."""

import os
import struct
import zlib

from repro.errors import StorageError
from repro.store.records import HEADER_LEN


def tear_tail(path: str, drop_bytes: int) -> None:
    """Truncate the last ``drop_bytes`` bytes off a store file — the
    on-disk shape of a crash that lost part of the final append."""
    size = os.path.getsize(path)
    if drop_bytes <= 0 or drop_bytes >= size - HEADER_LEN:
        raise StorageError(f"cannot tear {drop_bytes} bytes off a {size}-byte file")
    with open(path, "r+b") as handle:
        handle.truncate(size - drop_bytes)


def _frame_offsets(path: str, data: bytes) -> list[tuple[int, int, int]]:
    """(frame_start, payload_offset, length) of every intact frame."""
    offsets: list[tuple[int, int, int]] = []
    offset = HEADER_LEN
    prefix = struct.Struct(">II")
    while offset + prefix.size <= len(data):
        length, crc = prefix.unpack_from(data, offset)
        payload_at = offset + prefix.size
        if payload_at + length > len(data):
            break
        if zlib.crc32(data[payload_at : payload_at + length]) != crc:
            break
        offsets.append((offset, payload_at, length))
        offset = payload_at + length
    if not offsets:
        raise StorageError(f"{path} holds no intact records to corrupt")
    return offsets


def corrupt_crc(path: str, record_index: int = -1) -> None:
    """Flip a bit in the payload of one record so its CRC check fails.

    ``record_index`` counts valid frames from the file start (negative
    indexes from the end, ``-1`` = last record).
    """
    with open(path, "rb") as handle:
        data = handle.read()
    _start, payload_at, _length = _frame_offsets(path, data)[record_index]
    flipped = data[:payload_at] + bytes((data[payload_at] ^ 0x80,)) + data[payload_at + 1 :]
    with open(path, "wb") as handle:
        handle.write(flipped)


def corrupt_length(path: str, record_index: int = -1, new_length: int = 0xFFFFFFF0) -> None:
    """Overwrite one record's length prefix with a garbage value.

    This is damage a torn append cannot produce — a tear leaves a prefix
    of a frame a writer actually emitted, so any length field it leaves
    behind is a real (bounded) record length.  Recovery must treat an
    implausible length as corruption, never as a tear, or one flipped
    byte could silently swallow every committed record after it.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    frame_start, _payload_at, _length = _frame_offsets(path, data)[record_index]
    damaged = (
        data[:frame_start] + struct.pack(">I", new_length) + data[frame_start + 4 :]
    )
    with open(path, "wb") as handle:
        handle.write(damaged)
