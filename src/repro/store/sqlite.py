"""The SQLite backend: stdlib, inspectable, multi-process-readable.

The paper's prototype persists RS state in Apache Derby — an embedded
SQL database; ``sqlite3`` is the stdlib equivalent here.  One store is
one database file with two tables::

    records(namespace TEXT, key BLOB, value BLOB, lsn INTEGER,
            PRIMARY KEY (namespace, key))
    meta(name TEXT PRIMARY KEY, value INTEGER)   -- last_lsn, appended, tombstones

Durability leans on SQLite itself: every mutation commits with
``synchronous=FULL`` (SQLite fsyncs before the commit returns), so a
returned ``put`` is committed state, and recovery is simply opening the
file — SQLite's own journal replay handles torn writes.

Deletion guarantees: ``PRAGMA secure_delete=ON`` makes SQLite zero
deleted row content at ``DELETE`` time, and :meth:`SqliteEngine.compact`
runs ``VACUUM``, rewriting the database file without the dead pages —
so, as with the WAL backend, an expired item's bytes survive in no
store file after GC + compaction.

With a store ``key`` configured, values are AEAD-sealed before they hit
SQL, so external readers (the point of this backend: ad-hoc inspection
with the ``sqlite3`` shell, concurrent read-only monitors) see
namespaces, keys and counts but never plaintext item ciphertext.
"""

from __future__ import annotations

import os
import sqlite3

from ..crypto.symmetric import SecretBox
from ..errors import CorruptRecordError, IntegrityError, RecoveryError, StorageError
from ..obs import hooks as obs
from .engine import StorageEngine

__all__ = ["SqliteEngine"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    namespace TEXT NOT NULL,
    key BLOB NOT NULL,
    value BLOB NOT NULL,
    lsn INTEGER NOT NULL,
    PRIMARY KEY (namespace, key)
);
CREATE TABLE IF NOT EXISTS meta (
    name TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
"""


def _record_ad(namespace: str, key: bytes) -> bytes:
    return namespace.encode("utf-8") + b"\x00" + key


class SqliteEngine(StorageEngine):
    """Namespaced key-value store over one ``sqlite3`` database file."""

    backend = "sqlite"
    durable = True

    def __init__(
        self, path: str, *, key: bytes | None = None, component: str = "store"
    ):
        self.path = path
        self.component = component
        self._box = SecretBox(key) if key is not None else None
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with obs.span("store.recover", component=component, backend=self.backend):
            try:
                self._conn = sqlite3.connect(path)
                self._conn.execute("PRAGMA secure_delete=ON")
                self._conn.execute("PRAGMA synchronous=FULL")
                self._conn.executescript(_SCHEMA)
                self._conn.commit()
            except sqlite3.DatabaseError as exc:
                raise RecoveryError(f"cannot open sqlite store {path}: {exc}") from exc
        self._closed = False

    # -- meta counters ---------------------------------------------------------

    def _meta(self, name: str) -> int:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE name = ?", (name,)
        ).fetchone()
        return 0 if row is None else int(row[0])

    def _bump(self, name: str, by: int = 1) -> int:
        value = self._meta(name) + by
        self._conn.execute(
            "INSERT INTO meta (name, value) VALUES (?, ?) "
            "ON CONFLICT(name) DO UPDATE SET value = excluded.value",
            (name, value),
        )
        return value

    # -- engine interface ------------------------------------------------------

    def put(self, namespace: str, key: bytes, value: bytes) -> int:
        self._check_open()
        stored = (
            self._box.seal(value, associated_data=_record_ad(namespace, key))
            if self._box is not None
            else bytes(value)
        )
        lsn = self._bump("last_lsn")
        self._bump("appended")
        self._conn.execute(
            "INSERT OR REPLACE INTO records (namespace, key, value, lsn) "
            "VALUES (?, ?, ?, ?)",
            (namespace, bytes(key), stored, lsn),
        )
        self._conn.commit()
        return lsn

    def delete(self, namespace: str, key: bytes) -> int:
        self._check_open()
        lsn = self._bump("last_lsn")
        self._bump("appended")
        self._bump("tombstones")
        self._conn.execute(
            "DELETE FROM records WHERE namespace = ? AND key = ?",
            (namespace, bytes(key)),
        )
        self._conn.commit()
        return lsn

    def get(self, namespace: str, key: bytes) -> bytes | None:
        self._check_open()
        row = self._conn.execute(
            "SELECT value FROM records WHERE namespace = ? AND key = ?",
            (namespace, bytes(key)),
        ).fetchone()
        return None if row is None else self._open_value(namespace, bytes(key), row[0])

    def items(self, namespace: str) -> list[tuple[bytes, bytes]]:
        self._check_open()
        rows = self._conn.execute(
            "SELECT key, value FROM records WHERE namespace = ? ORDER BY key",
            (namespace,),
        ).fetchall()
        return [
            (bytes(key), self._open_value(namespace, bytes(key), value))
            for key, value in rows
        ]

    def _open_value(self, namespace: str, key: bytes, stored: bytes) -> bytes:
        if self._box is None:
            return bytes(stored)
        try:
            return self._box.open(
                bytes(stored), associated_data=_record_ad(namespace, key)
            )
        except IntegrityError as exc:
            raise CorruptRecordError(
                f"sqlite record ns={namespace!r} failed authentication "
                f"(wrong store key or damaged database)"
            ) from exc

    def sync(self) -> None:
        # every mutation commits with synchronous=FULL; nothing is pending
        pass

    def compact(self) -> dict:
        self._check_open()
        live = self._live_count()
        with obs.span("store.compact", component=self.component, backend=self.backend, live=live):
            self._conn.execute("VACUUM")
            self._conn.commit()
        return {"backend": self.backend, "live_records": live, "dropped_records": 0}

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._conn.close()

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("engine is closed")

    def _live_count(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM records").fetchone()[0])

    @property
    def last_lsn(self) -> int:
        return self._meta("last_lsn")

    def status(self) -> dict:
        self._check_open()
        namespaces = {
            namespace: int(count)
            for namespace, count in self._conn.execute(
                "SELECT namespace, COUNT(*) FROM records GROUP BY namespace "
                "ORDER BY namespace"
            )
        }
        return {
            "backend": self.backend,
            "durable": self.durable,
            "path": self.path,
            "sealed": self._box is not None,
            "last_committed_lsn": self._meta("last_lsn"),
            "records_appended": self._meta("appended"),
            "live_records": self._live_count(),
            "tombstones": self._meta("tombstones"),
            "namespaces": namespaces,
        }
