"""Repository Server (RS): encrypted payload store with TTL garbage collection.

Paper §4.1/§4.3: the RS "stores CP-ABE encrypted payloads along with
their associated GUIDs, and sends the encrypted payload associated with a
GUID to a subscriber upon request".  Retrieval requests arrive (via the
anonymizer) PKE-encrypted under the RS public key as ``(K_s, GUID)``; the
stored ciphertext is returned super-encrypted under ``K_s`` "to prevent
eavesdroppers from learning if more than one subscriber has received the
same payload" (§6.1).

Deletion (§4.3): each item carries TTL_item; the RS deletes it at
``arrival + TTL_item + T_G`` where the grace period ``T_G`` accommodates
slow consumers.  ``T_G = 0`` gives the strict interpretation, at the cost
of more failed fetches.

The storage/TTL logic lives in the :class:`RepositoryStore` engine and
the store/retrieve exchange in :class:`RepositoryServer`, written once
against a substrate ports object (:mod:`repro.net.ports`) — simulator
ports in :class:`~repro.core.system.P3SSystem`, asyncio ports under
:class:`repro.live.services.LiveRepositoryServer`.  Both substrates
serve byte-identical replies because there is one implementation.

Like the PBE-TS, the RS records what an honest-but-curious operator would
inevitably learn (request counts per stored item, item sizes, whether an
item was ever matched) — the privacy analysis asserts over these logs.
"""

from __future__ import annotations

import heapq
import json
import time
from dataclasses import dataclass
from typing import Callable

from ..crypto.pke import PKEKeyPair
from ..crypto.symmetric import KEY_LEN, SecretBox
from ..errors import DecryptionError, RetrievalError
from ..net.ports import ports_on
from ..obs import hooks as obs
from ..reader import expect_object, parse_json
from ..store import MemoryEngine, StorageEngine
from ..store.codec import NS_ITEMS, decode_item, encode_item
from .config import ComputeTimings
from .messages import (
    BARE_ERROR,
    RPC_RETRIEVE,
    RPC_STORE,
    PayloadSubmission,
    error_reply,
    ok_reply,
    split_reply,
    unhex,
)
from .sightings import opened

__all__ = [
    "RepositoryServer",
    "RepositoryStore",
    "encode_retrieval_request",
    "decode_retrieval_request",
    "decode_retrieval_response",
]


def encode_retrieval_request(session_key: bytes, guid: bytes) -> bytes:
    """Plaintext body of the 2-tuple (K_s, GUID)."""
    return json.dumps({"ks": session_key.hex(), "guid": guid.hex()}).encode("utf-8")


def decode_retrieval_request(pke: PKEKeyPair, payload: bytes) -> tuple[bytes, bytes]:
    """PKE-decrypt and parse one retrieval request; returns ``(K_s, GUID)``.

    Raises :class:`RetrievalError` when the request is malformed or not
    addressed to this server's key.
    """
    try:
        plaintext = pke.decrypt(payload)
    except DecryptionError as exc:
        raise RetrievalError(f"malformed retrieval request: {exc}") from exc
    body = parse_json(plaintext, RetrievalError)
    expect_object(body, {"ks": str, "guid": str}, "retrieval request", RetrievalError)
    return unhex(body["ks"], RetrievalError, KEY_LEN), unhex(body["guid"], RetrievalError)


def decode_retrieval_response(session_key: bytes, sealed: bytes) -> bytes:
    """Unseal the RS reply; returns the CP-ABE ciphertext bytes.

    Raises :class:`RetrievalError` if the item was missing or expired.
    """
    ok, body = split_reply(SecretBox(session_key).open(sealed))
    if not ok:
        raise RetrievalError(body.decode("utf-8", "replace") or "unknown retrieval failure")
    return body


@dataclass
class _StoredItem:
    ciphertext: bytes
    stored_at: float
    expires_at: float
    request_count: int = 0


class RepositoryStore:
    """The RS's substrate-free storage engine (the "disk").

    Every method takes ``now`` explicitly — the protocol passes its
    ports' clock (``sim.now``, or the live service's wall clock) — so
    TTL semantics are identical on both substrates.

    Durability is delegated to a pluggable
    :class:`~repro.store.StorageEngine`: every store writes through to
    the engine's ``items`` namespace and every GC deletion tombstones
    it, so with a durable backend (``wal``) the committed
    item set survives ``kill -9`` and is recovered at construction.
    The default :class:`~repro.store.MemoryEngine` reproduces the old
    purely-in-memory behaviour bit for bit.

    GC cost: expiry times ride a min-heap, so one sweep is
    O(expired · log n) instead of a full scan of every live item
    (``last_gc_examined`` counts heap pops for the regression test).
    Entries whose item was overwritten with a different expiry are
    dropped lazily when popped.

    Clock epochs: persisted ``stored_at``/``expires_at`` are readings of
    the *storing* process's service clock, and that epoch dies with a
    reboot (``time.monotonic`` restarts at boot) or a new simulator run.
    Pass ``now`` — the recovering service's current clock reading — to
    rebase every recovered expiry onto the live epoch using the
    wall-clock timestamp persisted alongside each item; the live RS
    always does.  ``now=None`` trusts the persisted epoch verbatim,
    which is only correct when the clock never reset across the
    restart (the simulator's virtual clock within one run, or tests
    that drive ``now`` explicitly).
    """

    def __init__(
        self,
        t_g: float = 60.0,
        engine: StorageEngine | None = None,
        now: float | None = None,
        wall_clock: Callable[[], float] = time.time,
    ):
        self.t_g = t_g
        self.engine = engine if engine is not None else MemoryEngine()
        self._wall_clock = wall_clock
        self._items: dict[bytes, _StoredItem] = {}
        self._expiry_heap: list[tuple[float, bytes]] = []
        self.stored_count = 0
        self.expired_count = 0
        self.failed_retrievals = 0
        self.last_gc_examined = 0
        self.recovered_count = self._recover(now)

    def _recover(self, now: float | None) -> int:
        """Rebuild the in-memory index from whatever the engine holds.

        With ``now`` given, each item's clocks are rebased: real time
        elapsed since the item was stored is measured on the wall clock
        (whose epoch survives reboots), and the expiry becomes
        ``now + (ttl_total - elapsed)`` — already in the past when the
        item outlived its TTL while the service was down, so the first
        GC sweep deletes it.  Without rebasing, a dead persisted epoch
        (e.g. pre-reboot ``time.monotonic`` readings) could compare
        above the new clock indefinitely and GC would never fire.

        Request counts start at zero: they are operator observability,
        not committed protocol state (see :mod:`repro.store.codec`).
        """
        wall_now = self._wall_clock()
        for guid, value in self.engine.items(NS_ITEMS):
            stored_at, expires_at, wall_stored_at, ciphertext = decode_item(value)
            if now is not None:
                elapsed = max(0.0, wall_now - wall_stored_at)
                ttl_total = expires_at - stored_at
                stored_at = now - elapsed
                expires_at = stored_at + ttl_total
            self._items[guid] = _StoredItem(
                ciphertext=ciphertext, stored_at=stored_at, expires_at=expires_at
            )
            heapq.heappush(self._expiry_heap, (expires_at, guid))
        return len(self._items)

    def store(self, submission: PayloadSubmission, now: float) -> None:
        expires_at = now + submission.ttl_s + self.t_g
        self._items[submission.guid] = _StoredItem(
            ciphertext=submission.ciphertext,
            stored_at=now,
            expires_at=expires_at,
        )
        heapq.heappush(self._expiry_heap, (expires_at, submission.guid))
        self.engine.put(
            NS_ITEMS,
            submission.guid,
            encode_item(now, expires_at, self._wall_clock(), submission.ciphertext),
        )
        self.stored_count += 1

    def lookup(self, guid: bytes, now: float) -> tuple[bytes, str]:
        """Reply plaintext for one GUID: ``(status_byte + body, status)``."""
        item = self._items.get(guid)
        if item is None or now >= item.expires_at:
            self.failed_retrievals += 1
            return error_reply("no such item (unknown GUID or expired)"), "miss"
        item.request_count += 1
        return ok_reply(item.ciphertext), "hit"

    def collect_garbage(self, now: float, compact: bool = False) -> int:
        """Drop every item past ``TTL_item + T_G``; returns how many.

        Each deletion tombstones the engine; ``compact=True``
        additionally rewrites the backend afterwards so the expired
        ciphertext bytes are physically unrecoverable from any store
        file (§4.3's deletion made verifiable).
        """
        removed = 0
        self.last_gc_examined = 0
        while self._expiry_heap and self._expiry_heap[0][0] <= now:
            expires_at, guid = heapq.heappop(self._expiry_heap)
            self.last_gc_examined += 1
            item = self._items.get(guid)
            if item is None or item.expires_at != expires_at:
                continue  # stale entry: the item was overwritten or already gone
            del self._items[guid]
            self.engine.delete(NS_ITEMS, guid)
            removed += 1
        self.expired_count += removed
        if removed and compact:
            self.engine.compact()
        return removed

    def holds(self, guid: bytes, now: float) -> bool:
        item = self._items.get(guid)
        return item is not None and now < item.expires_at

    def request_count(self, guid: bytes) -> int:
        item = self._items.get(guid)
        return 0 if item is None else item.request_count

    @property
    def item_count(self) -> int:
        return len(self._items)

    def close(self) -> None:
        self.engine.close()


class RepositoryServer:
    """The RS: store what the DS forwards, answer retrievals, sweep
    expired items — served on ``ports`` (a simulator
    :class:`~repro.net.network.Host` stands for simulator ports on it)."""

    def __init__(
        self,
        ports,
        pke: PKEKeyPair,
        timings: ComputeTimings,
        store: RepositoryStore,
        gc_interval_s: float = 10.0,
    ):
        self.ports = ports_on(ports)
        self.pke = pke
        self.timings = timings
        self.gc_interval_s = gc_interval_s
        # the engine models the on-disk store: "The RS stores encrypted
        # content on disk" (§6.1) — it survives crash()/restart().  With
        # a durable repro.store backend it survives process death too.
        self.store = store
        self.crashed = False
        self.ports.serve(RPC_STORE, self._handle_store)
        self.ports.serve(RPC_RETRIEVE, self._handle_retrieve)

    @property
    def name(self) -> str:
        return self.ports.name

    def start(self) -> None:
        self.ports.start()
        self.ports.spawn(self._gc_loop())

    # engine counters, surfaced under their historical names
    @property
    def stored_count(self) -> int:
        return self.store.stored_count

    @property
    def expired_count(self) -> int:
        return self.store.expired_count

    # -- store (one-way, forwarded by the DS) ----------------------------------

    def _handle_store(self, src: str, message) -> None:
        if self.crashed:
            return  # frames to a crashed RS are lost
        submission: PayloadSubmission = message.payload
        with obs.span(
            "rs.store",
            component=self.name,
            parent=obs.extract(message.headers),
            bytes=len(submission.ciphertext),
        ):
            self.store.store(submission, now=self.ports.now())

    # -- retrieve (request-response via anonymizer) ---------------------------------

    def _handle_retrieve(self, src: str, message):
        if self.crashed:
            return (b"", 1)  # degenerate reply; requester's unseal fails
        opened(self.name, "source", src)
        span = obs.start_span(
            "rs.retrieve", component=self.name, parent=obs.extract(message.headers)
        )
        yield self.ports.compute(self.timings.pke_op)
        try:
            with obs.attach(span):
                session_key, guid = decode_retrieval_request(self.pke, message.payload)
        except RetrievalError:
            obs.end_span(span, status="malformed")
            return (BARE_ERROR, 1)
        reply, status = self.store.lookup(guid, now=self.ports.now())
        yield self.ports.compute(self.timings.symmetric(len(reply)))
        with obs.attach(span):
            sealed = SecretBox(session_key).seal(reply)
        obs.end_span(span, status=status, bytes=len(sealed))
        return (sealed, len(sealed))

    # -- garbage collection (§4.3 Deletion) --------------------------------------------

    def _gc_loop(self):
        while True:
            # daemon: the periodic sweep must not keep a simulation alive
            yield self.ports.sleep(self.gc_interval_s, daemon=True)
            self.collect_garbage()

    def collect_garbage(self) -> int:
        """Drop every item past ``TTL_item + T_G``; returns how many.

        On a durable engine the sweep also compacts, so expired
        ciphertext is gone from the store files, not merely tombstoned.
        """
        return self.store.collect_garbage(
            now=self.ports.now(), compact=self.store.engine.durable
        )

    # -- crash / restart (§6.1) --------------------------------------------------------

    def crash(self) -> None:
        """Crash: volatile state is lost, the disk store is not."""
        self.crashed = True

    def restart(self) -> None:
        """"A crashed component can resume publish-subscribe activities
        after restart without requiring re-encryption of any published
        content" (§6.1): the encrypted items survived on disk."""
        self.crashed = False

    # -- introspection ---------------------------------------------------------------------

    def holds(self, guid: bytes) -> bool:
        return self.store.holds(guid, now=self.ports.now())

    def request_count(self, guid: bytes) -> int:
        return self.store.request_count(guid)

    @property
    def item_count(self) -> int:
        return self.store.item_count
