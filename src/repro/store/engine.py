"""The pluggable storage-engine interface and the in-memory backend.

:class:`StorageEngine` is the contract the Repository Server's item
store and the Dissemination Server's registries program against: a
namespaced key→value map with last-writer-wins puts, tombstoning
deletes and a compaction step after which deleted values are physically
unrecoverable from the backend's files.

Two backends implement it:

``memory`` (:class:`MemoryEngine`, here)
    Today's behaviour and the simulator default.  ``durable=False``:
    state lives exactly as long as the Python object.
``wal`` (:class:`~repro.store.wal.WalEngine`)
    Append-only log of CRC-checksummed, optionally AEAD-sealed records
    with periodic snapshot + compaction, and torn-tail-tolerant crash
    recovery.  The production-shaped backend.

Both yield byte-identical delivery sets when substituted under a
P3S deployment (``tests/store/test_equivalence.py``) — the engine
changes durability, never protocol behaviour.
"""

from __future__ import annotations

import os

from ..errors import StorageError

__all__ = ["StorageEngine", "MemoryEngine", "BACKENDS", "open_engine", "open_service_engine"]

BACKENDS = ("memory", "wal")


class StorageEngine:
    """Abstract namespaced key-value store with tombstoning deletes.

    Keys and values are ``bytes``; namespaces are short strings
    (``"items"``, ``"tokens"``, ``"subs"``).  Every mutation is assigned
    a monotonically increasing LSN; ``status()["last_committed_lsn"]``
    identifies the committed state a restart must reproduce.
    """

    backend: str = "abstract"
    durable: bool = False

    def put(self, namespace: str, key: bytes, value: bytes) -> int:
        raise NotImplementedError

    def delete(self, namespace: str, key: bytes) -> int:
        """Tombstone ``key``; idempotent, returns the tombstone's LSN."""
        raise NotImplementedError

    def get(self, namespace: str, key: bytes) -> bytes | None:
        raise NotImplementedError

    def items(self, namespace: str) -> list[tuple[bytes, bytes]]:
        """The live (non-tombstoned) entries of one namespace."""
        raise NotImplementedError

    def count(self, namespace: str) -> int:
        return len(self.items(namespace))

    def compact(self) -> dict:
        """Rewrite the backend so tombstoned/overwritten values are gone
        from its files; returns compaction stats."""
        return {"backend": self.backend, "dropped_records": 0}

    def close(self) -> None:
        pass

    @property
    def healthy(self) -> bool:
        """False once the engine can no longer accept writes (injected
        crash, closed handle); feeds service readiness checks."""
        return True

    def status(self) -> dict:
        """Counts for telemetry and ``repro store inspect``."""
        raise NotImplementedError

    # context-manager convenience for tests and CLI one-shots
    def __enter__(self) -> "StorageEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemoryEngine(StorageEngine):
    """The non-durable backend: plain dicts, LSN bookkeeping for parity."""

    backend = "memory"
    durable = False

    def __init__(self):
        self._namespaces: dict[str, dict[bytes, bytes]] = {}
        self._lsn = 0
        self._appended = 0
        self._tombstones = 0

    def put(self, namespace: str, key: bytes, value: bytes) -> int:
        self._lsn += 1
        self._appended += 1
        self._namespaces.setdefault(namespace, {})[bytes(key)] = bytes(value)
        return self._lsn

    def delete(self, namespace: str, key: bytes) -> int:
        self._lsn += 1
        self._appended += 1
        self._tombstones += 1
        self._namespaces.get(namespace, {}).pop(bytes(key), None)
        return self._lsn

    def get(self, namespace: str, key: bytes) -> bytes | None:
        return self._namespaces.get(namespace, {}).get(bytes(key))

    def items(self, namespace: str) -> list[tuple[bytes, bytes]]:
        return list(self._namespaces.get(namespace, {}).items())

    def status(self) -> dict:
        live = sum(len(entries) for entries in self._namespaces.values())
        return {
            "backend": self.backend,
            "durable": self.durable,
            "last_committed_lsn": self._lsn,
            "records_appended": self._appended,
            "live_records": live,
            "tombstones": self._tombstones,
            "namespaces": {
                namespace: len(entries)
                for namespace, entries in sorted(self._namespaces.items())
                if entries
            },
        }


def open_engine(
    backend: str,
    path: str | None = None,
    *,
    key: bytes | None = None,
    fsync: bool = True,
    faults=None,
    snapshot_every: int = 1024,
    component: str = "store",
) -> StorageEngine:
    """Open one storage engine by backend name.

    ``path`` is a directory for ``wal`` and ignored for ``memory``.
    ``key`` (32 bytes) turns on at-rest AEAD sealing of record values.
    ``faults`` threads a
    :class:`~repro.store.faults.FaultPlan` into the WAL write path.
    """
    if backend == "memory":
        return MemoryEngine()
    if path is None:
        raise StorageError(f"backend {backend!r} needs a path")
    if backend == "wal":
        from .wal import WalEngine

        return WalEngine(
            path,
            key=key,
            fsync=fsync,
            faults=faults,
            snapshot_every=snapshot_every,
            component=component,
        )
    raise StorageError(f"unknown storage backend {backend!r}; expected one of {BACKENDS}")


def open_service_engine(
    config, data_dir: str | None, role: str, key: bytes | None
) -> StorageEngine | None:
    """One durable service's engine under ``data_dir/<role>``, per the
    deployment config's store knobs.

    None with the ``memory`` backend: the service builds its own
    volatile engine — the pre-persistence behaviour.  Shard names
    ("ds0", "rs1", …) each get their own subtree, so shards never share
    store files.
    """
    backend = config.store_backend
    if backend == "memory":
        return None
    if data_dir is None:
        raise StorageError(f"store_backend={backend!r} requires a data directory")
    return open_engine(
        backend,
        os.path.join(data_dir, role),
        key=key,
        fsync=config.store_fsync,
        snapshot_every=config.store_snapshot_every,
        component=role,
    )
