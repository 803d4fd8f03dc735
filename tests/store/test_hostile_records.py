"""Hostile bytes at the WAL and snapshot record decoders (ROADMAP item 1).

``scan_frames`` hands every CRC-clean frame payload to ``decode_payload``,
and recovery reads every store file's header with ``decode_header``; a
damaged disk or a hostile file chooses those bytes.  The property of
``tests/pbe/test_hostile_bytes.py``: a valid encoding mutated by
truncation, a bit flip, an inflated length field or a splice with another
encoding either decodes to a value that re-encodes to the very bytes it
came from, or is rejected with a :class:`ReproError` subclass — never
another exception.
"""

from hypothesis import example, given, settings

from repro.errors import ReproError
from repro.store.records import (
    HEADER_LEN,
    LOG_MAGIC,
    OP_PUT,
    OP_TOMBSTONE,
    SNAPSHOT_MAGIC,
    decode_header,
    decode_payload,
    encode_header,
    encode_record,
)

from ..hostile import hostile

PAYLOADS = [
    encode_record(lsn, op, namespace, key, value)[8:]  # past the length and CRC prefix
    for lsn, op, namespace, key, value in (
        (1, OP_PUT, "items", b"guid-0001", b"sealed value"),
        (2**40, OP_TOMBSTONE, "tokens", b"\x00" * 32, b""),
        (7, OP_PUT, "névé", b"topic\x00client", b""),
    )
]
HEADERS = [
    encode_header(magic, sealed, base_lsn)
    for magic, sealed, base_lsn in ((LOG_MAGIC, True, 0), (SNAPSHOT_MAGIC, False, 12345))
]


def payload_fields(blob: bytes) -> list[tuple[int, str]]:
    """The u8 namespace length, the u16 key length and the u32 value length."""
    ns_end = 9 + 1 + blob[9]
    key_end = ns_end + 2 + int.from_bytes(blob[ns_end : ns_end + 2], "big")
    return [(9, ">B"), (ns_end, ">H"), (key_end, ">I")]


# flags other than the sealed bit decoded as unsealed, re-encoding to 0x00
HEADER_UNKNOWN_FLAG = LOG_MAGIC + b"\x02" + HEADERS[0][9:]


@settings(max_examples=300, deadline=None)
@given(hostile(PAYLOADS, payload_fields))
def test_hostile_record_payload_round_trips_or_is_rejected(blob):
    try:
        record = decode_payload(blob)
    except ReproError:
        return
    encoded = encode_record(record.lsn, record.op, record.namespace, record.key, record.value)
    assert encoded[8:] == blob


@settings(max_examples=300, deadline=None)
@given(hostile(HEADERS, lambda blob: []))
@example(HEADER_UNKNOWN_FLAG)
def test_hostile_store_header_round_trips_or_is_rejected(blob):
    magic = blob[:8] if blob[:8] in (LOG_MAGIC, SNAPSHOT_MAGIC) else LOG_MAGIC
    try:
        sealed, base_lsn = decode_header(blob, magic)
    except ReproError:
        return
    assert encode_header(magic, sealed, base_lsn) == blob[:HEADER_LEN]
