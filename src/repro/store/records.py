"""On-disk record framing shared by the WAL log and snapshot files.

One frame carries one storage operation::

    u32  payload length L        (big-endian)
    u32  CRC-32 of the payload
    L    payload

and the payload is::

    u64  LSN (log sequence number, monotone per store)
    u8   op            (1 = PUT, 2 = TOMBSTONE)
    u8   namespace length | namespace (UTF-8)
    u16  key length       | key
    u32  value length     | value   (empty for tombstones)

Framing fields and the namespace/key stay in the clear — they are what
``repro store inspect`` reads without the store key, and they reveal
nothing the storing service does not already know about its own state.
The *value* (the actual ciphertext payload, token bytes, …) is sealed
with the store's :class:`~repro.crypto.symmetric.SecretBox` when a key
is configured, with the record identity ``ns || 0x00 || key`` as
associated data so a sealed value cannot be spliced onto a different
record.

A frame that fails its length or CRC check at the end of a log is a
**torn tail** — the expected residue of a crash mid-append — and recovery
truncates it.  The same failure *before* the end of the file means the
file was damaged after the fact, and decoding raises
:class:`~repro.errors.CorruptRecordError` instead of guessing.

Frames are bounded by :data:`MAX_RECORD_LEN` (writers refuse anything
larger), which lets the scanner tell the two cases apart even when the
*length prefix itself* is the damaged field: a torn append writes a
prefix of a real frame, so any length it leaves on disk is a length a
writer actually produced — an implausibly large one can only be
corruption, and treating it as a tear would silently swallow every
committed record between it and EOF.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Iterator

from ..crypto.symmetric import SecretBox
from ..errors import CorruptRecordError, IntegrityError
from ..reader import Reader, prefixed

__all__ = [
    "OP_PUT",
    "OP_TOMBSTONE",
    "MAX_RECORD_LEN",
    "LOG_MAGIC",
    "SNAPSHOT_MAGIC",
    "Record",
    "ScanResult",
    "encode_record",
    "decode_payload",
    "encode_header",
    "decode_header",
    "scan_frames",
    "seal_value",
    "open_value",
    "iter_live",
]

OP_PUT = 1
OP_TOMBSTONE = 2

# Upper bound on one frame's payload, enforced at encode time.  Far above
# any real P3S record (items are single publication ciphertexts), it
# exists so the recovery scanner can reject a damaged length prefix as
# corruption instead of mistaking it for a torn tail.
MAX_RECORD_LEN = 64 * 1024 * 1024

# 8-byte magic + u8 flags + u64 base LSN
LOG_MAGIC = b"P3SWAL1\n"
SNAPSHOT_MAGIC = b"P3SSNAP\n"
HEADER_LEN = 8 + 1 + 8
FLAG_SEALED = 0x01

_FRAME_PREFIX = struct.Struct(">II")


@dataclass(frozen=True)
class Record:
    """One decoded storage operation."""

    lsn: int
    op: int
    namespace: str
    key: bytes
    value: bytes  # as stored on disk (sealed when the store has a key)

    @property
    def is_tombstone(self) -> bool:
        return self.op == OP_TOMBSTONE


@dataclass
class ScanResult:
    """What a file scan recovered, and what it had to give up on."""

    records: list[Record]
    torn_at: int | None  # file offset of the torn tail, None if clean
    scanned_bytes: int


def _record_ad(namespace: str, key: bytes) -> bytes:
    return namespace.encode("utf-8") + b"\x00" + key


def seal_value(box: SecretBox | None, namespace: str, key: bytes, value: bytes) -> bytes:
    if box is None:
        return value
    return box.seal(value, associated_data=_record_ad(namespace, key))


def open_value(box: SecretBox | None, record: Record) -> bytes:
    if box is None or record.is_tombstone:
        return record.value
    try:
        return box.open(record.value, associated_data=_record_ad(record.namespace, record.key))
    except IntegrityError as exc:
        raise CorruptRecordError(
            f"record lsn={record.lsn} ns={record.namespace!r}: sealed value "
            f"failed authentication (wrong store key or damaged file)"
        ) from exc


def encode_record(
    lsn: int, op: int, namespace: str, key: bytes, value: bytes
) -> bytes:
    ns_bytes = namespace.encode("utf-8")
    if len(ns_bytes) > 0xFF:
        raise CorruptRecordError(f"namespace too long: {namespace!r}")
    if len(key) > 0xFFFF:
        raise CorruptRecordError(f"key too long: {len(key)} bytes")
    if len(value) > MAX_RECORD_LEN - 64:  # leave room for the fixed fields
        raise CorruptRecordError(
            f"value too long: {len(value)} bytes (records are bounded by "
            f"MAX_RECORD_LEN={MAX_RECORD_LEN} so recovery can vet length prefixes)"
        )
    payload = b"".join(
        (
            struct.pack(">QB", lsn, op),
            bytes((len(ns_bytes),)),
            ns_bytes,
            struct.pack(">H", len(key)),
            key,
            prefixed(value),
        )
    )
    return _FRAME_PREFIX.pack(len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload: bytes) -> Record:
    reader = Reader(payload, CorruptRecordError)
    lsn, op = reader.u64(), reader.u8()
    if op not in (OP_PUT, OP_TOMBSTONE):
        raise CorruptRecordError(f"unknown record op {op}")
    namespace = reader.utf8(reader.u8())
    key, value = reader.take(reader.u16()), reader.prefixed()
    reader.end()
    return Record(lsn=lsn, op=op, namespace=namespace, key=key, value=value)


def encode_header(magic: bytes, sealed: bool, base_lsn: int) -> bytes:
    flags = FLAG_SEALED if sealed else 0
    return magic + bytes((flags,)) + struct.pack(">Q", base_lsn)


def decode_header(data: bytes, magic: bytes) -> tuple[bool, int]:
    """Returns ``(sealed, base_lsn)`` from the first :data:`HEADER_LEN`
    bytes of ``data``; raises on a wrong, short or unknown header."""
    reader = Reader(data, CorruptRecordError)
    if reader.take(len(magic)) != magic:
        raise CorruptRecordError(f"bad store file header (expected {magic!r})")
    flags, base_lsn = reader.u8(), reader.u64()
    if flags & ~FLAG_SEALED:
        raise CorruptRecordError(f"unknown store file flags {flags:#x}")
    return bool(flags), base_lsn


def scan_frames(data: bytes, start: int, *, strict: bool) -> ScanResult:
    """Decode frames from ``data[start:]`` until EOF or a bad frame.

    ``strict=True`` (snapshots) treats any bad frame as corruption;
    ``strict=False`` (the log) treats a bad *final* region as the torn
    tail of a crashed append and reports where it starts.  A bad frame
    with further bytes beyond its declared extent is corruption either
    way — a torn append can only damage the end of the file.  So is a
    length prefix above :data:`MAX_RECORD_LEN`: writers never produce
    such a frame, so a torn append cannot leave one behind, and
    honouring it as a tear would let a single flipped length byte
    swallow every committed record after it.
    """
    records: list[Record] = []
    offset = start
    end = len(data)
    while offset < end:
        frame_start = offset
        if offset + _FRAME_PREFIX.size > end:
            return _torn(records, frame_start, end, strict, "truncated frame prefix")
        length, crc = _FRAME_PREFIX.unpack_from(data, offset)
        offset += _FRAME_PREFIX.size
        if length > MAX_RECORD_LEN:
            raise CorruptRecordError(
                f"frame at offset {frame_start} declares an implausible "
                f"{length}-byte payload (> MAX_RECORD_LEN={MAX_RECORD_LEN}) "
                f"— damaged length prefix, not a torn append"
            )
        if offset + length > end:
            return _torn(records, frame_start, end, strict, "truncated frame payload")
        payload = data[offset : offset + length]
        offset += length
        if zlib.crc32(payload) != crc:
            if offset < end and not strict:
                # bytes continue past the bad frame: this is damage, not a tear
                raise CorruptRecordError(
                    f"CRC mismatch at offset {frame_start} with "
                    f"{end - offset} bytes following — file is corrupt, not torn"
                )
            return _torn(records, frame_start, end, strict, "CRC mismatch")
        records.append(decode_payload(payload))
    return ScanResult(records=records, torn_at=None, scanned_bytes=end - start)


def _torn(
    records: list[Record], frame_start: int, end: int, strict: bool, why: str
) -> ScanResult:
    if strict:
        raise CorruptRecordError(f"{why} at offset {frame_start}")
    return ScanResult(records=records, torn_at=frame_start, scanned_bytes=end)


def iter_live(records: Iterator[Record]) -> dict[tuple[str, bytes], Record]:
    """Fold a record stream into its live set (last writer wins,
    tombstones delete)."""
    live: dict[tuple[str, bytes], Record] = {}
    for record in records:
        slot = (record.namespace, record.key)
        if record.is_tombstone:
            live.pop(slot, None)
        else:
            live[slot] = record
    return live
