"""Deterministic fault injection for the storage engines.

Crash recovery is only trustworthy if it is *testable*: every claim in
``docs/PERSISTENCE.md`` ("a SIGKILL at any point loses at most the
un-fsynced suffix") maps to a named crash point here, and the battery in
``tests/store/test_crash_recovery.py`` fires each one, restarts, and
asserts the recovered state equals the pre-crash committed state.

A :class:`FaultPlan` is armed with a crash point name and a hit count;
the engine calls :meth:`FaultPlan.fire` at each instrumented point, and
on the matching hit a :class:`SimulatedCrash` propagates out of the
write path — the in-process stand-in for ``kill -9`` between two
syscalls.  Armed at ``append.partial_write``, it makes the engine write
only a prefix of the frame before dying, which is how a torn tail is
manufactured on purpose.

Crash points instrumented in :class:`~repro.store.wal.WalEngine`:

==========================  ====================================================
``append.before_write``     nothing of the record reaches the file
``append.partial_write``    a prefix of the frame is written (torn tail)
``append.after_write``      full frame written, no fsync yet
``append.after_fsync``      record durable; crash after the commit point
``snapshot.before_rename``  snapshot temp file written, not yet visible
``snapshot.after_rename``   snapshot live, old log not yet truncated
``compact.after_truncate``  log truncated after a compaction snapshot
==========================  ====================================================

The module also provides after-the-fact file corruption
(:func:`tear_tail`, :func:`corrupt_crc`) for faults a crash cannot
produce, e.g. bit rot in the middle of a log.
"""

from __future__ import annotations

import os
import struct
import zlib
from collections import Counter

from ..errors import StorageError
from .records import HEADER_LEN

__all__ = [
    "SimulatedCrash",
    "FaultPlan",
    "CRASH_POINTS",
    "tear_tail",
    "corrupt_crc",
    "corrupt_length",
]

CRASH_POINTS = (
    "append.before_write",
    "append.partial_write",
    "append.after_write",
    "append.after_fsync",
    "snapshot.before_rename",
    "snapshot.after_rename",
    "compact.after_truncate",
)


class SimulatedCrash(BaseException):
    """Raised by an armed :class:`FaultPlan`: the process 'died' here.

    Tests catch this at the engine boundary, drop the engine object
    without closing it (a real crash runs no destructors), and re-open
    the directory to exercise recovery.  Like ``SystemExit`` it is no
    :class:`Exception`: a process that died handles nothing, so no
    error handler — an RPC endpoint refusing a frame, a retry loop —
    may catch it and carry on.
    """


class FaultPlan:
    """Crash at the Nth visit to one named point."""

    def __init__(self, point: str, hit: int = 1):
        if point not in CRASH_POINTS:
            raise StorageError(
                f"unknown crash point {point!r}; expected one of {CRASH_POINTS}"
            )
        self.point = point
        self.hit = hit
        self.hits: Counter[str] = Counter()
        self.fired = False

    def would_fire(self, point: str) -> bool:
        """Record one visit; True when this is the armed point's Nth hit.

        Used by the engine for points that must do damage *before*
        dying (the partial write); plain points use :meth:`fire`.
        """
        self.hits[point] += 1
        if point == self.point and self.hits[point] == self.hit:
            self.fired = True
            return True
        return False

    def fire(self, point: str) -> None:
        """Record one visit; raise :class:`SimulatedCrash` on the match."""
        if self.would_fire(point):
            raise SimulatedCrash(f"injected crash at {point} (hit {self.hit})")


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
