"""How P3S service state maps onto storage-engine records.

Both substrates (the simulator services in :mod:`repro.core` and the
asyncio TCP services in :mod:`repro.live`) persist through these
codecs, so a store written by one is recoverable by the other.

Namespaces:

``items`` (the RS payload store)
    key = GUID; value = ``stored_at f64 || expires_at f64 ||
    wall_stored_at f64 || ciphertext``.  ``stored_at``/``expires_at``
    are readings of the storing service's own clock (``sim.now`` in the
    simulator, ``time.monotonic`` on the live substrate) — an epoch that
    does **not** survive a reboot or a new simulator run.
    ``wall_stored_at`` is ``time.time()`` at store time: recovery uses
    it to measure real elapsed time and rebase the remaining TTL onto
    the recovering service's clock, so GC still fires on schedule when
    the persisted epoch is dead (see
    :meth:`~repro.core.rs.RepositoryStore._recover`).  The per-item
    request count is deliberately *not* persisted — it is HBC-operator
    observability, not protocol state, and persisting it would turn
    every read into a write.
``tokens`` (the DS delegated-matching registry)
    key = SHA-256 of ``subscriber || 0x00 || token``; value =
    ``u16 name length || name || token bytes``.  Hashed keys keep the
    (long) serialized token out of the record key's 64 KiB budget.
``subs`` (the DS subscription table)
    key = ``topic || 0x00 || client``; value = empty.
"""

from __future__ import annotations

import hashlib
import struct

from ..errors import CorruptRecordError
from ..reader import Reader

__all__ = [
    "NS_ITEMS",
    "NS_TOKENS",
    "NS_SUBS",
    "encode_item",
    "decode_item",
    "token_key",
    "encode_token",
    "decode_token",
    "sub_key",
    "decode_sub_key",
]

NS_ITEMS = "items"
NS_TOKENS = "tokens"
NS_SUBS = "subs"


def encode_item(
    stored_at: float, expires_at: float, wall_stored_at: float, ciphertext: bytes
) -> bytes:
    return struct.pack(">ddd", stored_at, expires_at, wall_stored_at) + ciphertext


def decode_item(value: bytes) -> tuple[float, float, float, bytes]:
    """Returns ``(stored_at, expires_at, wall_stored_at, ciphertext)``."""
    reader = Reader(value, CorruptRecordError)
    return reader.f64(), reader.f64(), reader.f64(), reader.rest()


def token_key(subscriber: str, token: bytes) -> bytes:
    return hashlib.sha256(subscriber.encode("utf-8") + b"\x00" + token).digest()


def encode_token(subscriber: str, token: bytes) -> bytes:
    name = subscriber.encode("utf-8")
    if len(name) > 0xFFFF:
        raise CorruptRecordError(f"subscriber name too long: {subscriber!r}")
    return struct.pack(">H", len(name)) + name + token


def decode_token(value: bytes) -> tuple[str, bytes]:
    """Returns ``(subscriber, token_bytes)``."""
    reader = Reader(value, CorruptRecordError)
    return reader.utf8(reader.u16()), reader.rest()


def sub_key(topic: str, client: str) -> bytes:
    return topic.encode("utf-8") + b"\x00" + client.encode("utf-8")


def decode_sub_key(key: bytes) -> tuple[str, str]:
    """Returns ``(topic, client)``."""
    topic, sep, client = key.partition(b"\x00")
    if not sep:
        raise CorruptRecordError(f"undecodable subscription key {key!r}")
    try:
        return topic.decode("utf-8"), client.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptRecordError(f"undecodable subscription key {key!r}: {exc}") from exc
