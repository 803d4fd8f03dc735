"""The write-ahead-log backend: append, fsync, snapshot, recover.

One store is one directory::

    <dir>/wal.log                    append-only record log
    <dir>/snapshot-<lsn 20d>.snap    periodic full-state snapshots

Every mutation appends one framed record (see
:mod:`repro.store.records`) to the log, flushes, and — with
``fsync=True``, the default — fsyncs before returning: a ``put`` that
returned is a *committed* record and survives ``kill -9``.

**Recovery** (:meth:`WalEngine._recover`) rebuilds the live map as:

1. load the newest snapshot that parses cleanly — a corrupt newer
   snapshot is skipped (counted in ``RecoveryInfo.snapshots_skipped``)
   and the next-newest is tried; ``*.tmp`` leftovers are ignored, since
   a crash mid-snapshot leaves either no new file or a complete one,
   thanks to write-temp-then-rename;
2. replay log records with ``lsn > snapshot_lsn`` in order.  The log
   header's ``base_lsn`` must not exceed the loaded snapshot's LSN:
   once compaction has truncated the log past a snapshot, that
   snapshot no longer combines with the log into a complete state, and
   recovering from it would silently drop the gap — that (e.g. the
   only remaining snapshot being corrupt after the log was truncated
   to it) raises :class:`~repro.errors.RecoveryError` instead;
3. if the log ends in a torn record — the residue of a crash
   mid-append — truncate it off and continue; a bad record *followed by
   more data* is real corruption and raises
   :class:`~repro.errors.CorruptRecordError` instead of silently
   dropping committed suffixes.

**Verified deletion** (paper §4.3): a ``delete`` appends a tombstone —
the dead value's bytes are still in the log at that point — and
:meth:`compact` then writes a snapshot of only the live entries,
truncates the log, and unlinks every older snapshot.  After compaction
returns, no file under the store directory contains the deleted value
(``tests/store/test_rs_persistence.py`` greps the files to prove it).

With a 32-byte ``key``, record values are additionally AEAD-sealed at
rest, so item ciphertext never touches the disk in the clear; framing,
namespaces and keys stay readable for ``repro store inspect``.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass

from ..crypto.symmetric import SecretBox
from ..errors import CorruptRecordError, RecoveryError, StorageError
from ..obs import hooks as obs
from .engine import StorageEngine
from .faults import FaultPlan, SimulatedCrash
from .records import (
    HEADER_LEN,
    LOG_MAGIC,
    OP_PUT,
    OP_TOMBSTONE,
    SNAPSHOT_MAGIC,
    decode_header,
    encode_header,
    encode_record,
    iter_live,
    open_value,
    scan_frames,
    seal_value,
)

__all__ = ["WalEngine", "RecoveryInfo", "LOG_NAME", "SNAPSHOT_PREFIX"]

LOG_NAME = "wal.log"
SNAPSHOT_PREFIX = "snapshot-"
SNAPSHOT_SUFFIX = ".snap"


@dataclass(frozen=True)
class RecoveryInfo:
    """What one engine open reconstructed, for telemetry and tests."""

    snapshot_lsn: int
    log_records_replayed: int
    torn_bytes: int
    live_records: int
    last_committed_lsn: int
    snapshots_skipped: int = 0
    # wall-clock seconds the open-time rebuild took — the signal behind
    # the per-shard store-recovery SLO (live only: wall time is not
    # deterministic, so chaos replay ignores it)
    duration_s: float = 0.0

    @property
    def clean(self) -> bool:
        return self.torn_bytes == 0 and self.snapshots_skipped == 0


def snapshot_name(lsn: int) -> str:
    return f"{SNAPSHOT_PREFIX}{lsn:020d}{SNAPSHOT_SUFFIX}"


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WalEngine(StorageEngine):
    """Append-only log + snapshot storage in one directory."""

    backend = "wal"
    durable = True

    def __init__(
        self,
        path: str,
        *,
        key: bytes | None = None,
        fsync: bool = True,
        faults: FaultPlan | None = None,
        snapshot_every: int = 1024,
        component: str = "store",
    ):
        self.path = path
        self.component = component
        self._box = SecretBox(key) if key is not None else None
        self._sealed = key is not None
        self._fsync = fsync
        self._faults = faults
        self.snapshot_every = snapshot_every
        self._live: dict[str, dict[bytes, bytes]] = {}
        self._lsn = 0
        self._crashed = False
        self._closed = False
        self.records_appended = 0
        self.tombstones_appended = 0
        self.compactions = 0
        # records sitting in the log since the last snapshot — the
        # compaction trigger and the measure of recovery replay cost
        self._log_records = 0
        os.makedirs(path, exist_ok=True)
        with obs.span("store.recover", component=component, backend=self.backend):
            started = time.perf_counter()
            self.recovery = dataclasses.replace(
                self._recover(), duration_s=time.perf_counter() - started
            )
        self._handle = open(self._log_path, "ab")

    # -- paths ---------------------------------------------------------------

    @property
    def _log_path(self) -> str:
        return os.path.join(self.path, LOG_NAME)

    def _snapshot_files(self) -> list[tuple[int, str]]:
        """(lsn, path) of every completed snapshot, newest first."""
        found: list[tuple[int, str]] = []
        for name in os.listdir(self.path):
            if name.startswith(SNAPSHOT_PREFIX) and name.endswith(SNAPSHOT_SUFFIX):
                digits = name[len(SNAPSHOT_PREFIX) : -len(SNAPSHOT_SUFFIX)]
                try:
                    found.append((int(digits), os.path.join(self.path, name)))
                except ValueError:
                    continue
        return sorted(found, reverse=True)

    # -- recovery ------------------------------------------------------------

    def _recover(self) -> RecoveryInfo:
        snapshot_lsn, records, snapshots_skipped = self._load_latest_snapshot()
        log_records, torn_bytes = self._replay_log(snapshot_lsn, records)
        live = iter_live(iter(records))
        for (namespace, key), record in live.items():
            value = open_value(self._box, record)
            self._live.setdefault(namespace, {})[key] = value
        self._lsn = max(
            [snapshot_lsn] + [record.lsn for record in records], default=0
        )
        self._log_records = log_records
        return RecoveryInfo(
            snapshot_lsn=snapshot_lsn,
            log_records_replayed=log_records,
            torn_bytes=torn_bytes,
            live_records=sum(len(entries) for entries in self._live.values()),
            last_committed_lsn=self._lsn,
            snapshots_skipped=snapshots_skipped,
        )

    def _load_latest_snapshot(self) -> tuple[int, list, int]:
        """The newest snapshot that parses cleanly, as
        ``(lsn, records, skipped)``.

        A corrupt snapshot is skipped in favour of the next-newest —
        whether the older state plus the log still amounts to the full
        committed state is checked against the log's ``base_lsn`` in
        :meth:`_replay_log`, so skipping here never silently loses
        records.  A sealing-flag mismatch stays fatal: that is an
        engine/file configuration conflict, not file damage.
        """
        skipped = 0
        for lsn, path in self._snapshot_files():
            with open(path, "rb") as handle:
                data = handle.read()
            try:
                sealed, base_lsn = decode_header(data, SNAPSHOT_MAGIC)
                result = scan_frames(data, start=HEADER_LEN, strict=True)
            except CorruptRecordError:
                skipped += 1
                continue
            if sealed != self._sealed:
                raise RecoveryError(
                    f"snapshot {path} sealing flag mismatches the engine "
                    f"(file sealed={sealed}, engine sealed={self._sealed})"
                )
            return base_lsn, list(result.records), skipped
        return 0, [], skipped

    def _replay_log(self, snapshot_lsn: int, records: list) -> tuple[int, int]:
        """Append post-snapshot log records onto ``records`` in place."""
        if not os.path.exists(self._log_path):
            self._write_fresh_log(base_lsn=snapshot_lsn)
            return 0, 0
        with open(self._log_path, "rb") as handle:
            data = handle.read()
        sealed, base = decode_header(data, LOG_MAGIC)
        if sealed != self._sealed:
            raise RecoveryError(
                f"log {self._log_path} sealing flag mismatches the engine"
            )
        if base > snapshot_lsn:
            # the log was truncated past every usable snapshot (e.g. the
            # one snapshot covering it is corrupt): the gap between the
            # recovered snapshot and the log's base is gone from disk,
            # and pretending otherwise would resurrect a partial state
            raise RecoveryError(
                f"log {self._log_path} starts at lsn {base} but the newest "
                f"readable snapshot covers only lsn {snapshot_lsn}: committed "
                f"records in between are unrecoverable"
            )
        result = scan_frames(data, start=HEADER_LEN, strict=False)
        replayed = 0
        for record in result.records:
            if record.lsn > snapshot_lsn:
                records.append(record)
                replayed += 1
        torn_bytes = 0
        if result.torn_at is not None:
            torn_bytes = len(data) - result.torn_at
            with open(self._log_path, "r+b") as handle:
                handle.truncate(result.torn_at)
                handle.flush()
                os.fsync(handle.fileno())
        return replayed, torn_bytes

    def _write_fresh_log(self, base_lsn: int) -> None:
        tmp = self._log_path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(encode_header(LOG_MAGIC, self._sealed, base_lsn))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._log_path)
        _fsync_dir(self.path)

    # -- the write path --------------------------------------------------------

    def _append(self, op: int, namespace: str, key: bytes, value: bytes) -> int:
        if self._crashed:
            raise StorageError("engine hit an injected crash; reopen the store")
        if self._closed:
            raise StorageError("engine is closed")
        lsn = self._lsn + 1
        stored = seal_value(self._box, namespace, key, value) if op == OP_PUT else b""
        frame = encode_record(lsn, op, namespace, key, stored)
        try:
            self._fire("append.before_write")
            if self._faults is not None and self._faults.would_fire("append.partial_write"):
                self._handle.write(frame[: max(1, len(frame) // 2)])
                self._handle.flush()
                os.fsync(self._handle.fileno())
                raise SimulatedCrash("injected crash mid-append (torn tail)")
            self._handle.write(frame)
            self._handle.flush()
            self._fire("append.after_write")
            if self._fsync:
                os.fsync(self._handle.fileno())
            self._fire("append.after_fsync")
        except SimulatedCrash:
            self._crashed = True
            raise
        self._lsn = lsn
        self.records_appended += 1
        self._log_records += 1
        if op == OP_TOMBSTONE:
            self.tombstones_appended += 1
            self._live.get(namespace, {}).pop(bytes(key), None)
        else:
            self._live.setdefault(namespace, {})[bytes(key)] = bytes(value)
        if self.snapshot_every and self._log_records >= self.snapshot_every:
            self.compact()
        return lsn

    def _fire(self, point: str) -> None:
        if self._faults is not None:
            self._faults.fire(point)

    def put(self, namespace: str, key: bytes, value: bytes) -> int:
        return self._append(OP_PUT, namespace, key, value)

    def delete(self, namespace: str, key: bytes) -> int:
        return self._append(OP_TOMBSTONE, namespace, key, b"")

    def get(self, namespace: str, key: bytes) -> bytes | None:
        return self._live.get(namespace, {}).get(bytes(key))

    def items(self, namespace: str) -> list[tuple[bytes, bytes]]:
        return list(self._live.get(namespace, {}).items())

    # -- snapshot + compaction -------------------------------------------------

    def compact(self) -> dict:
        """Snapshot the live set, truncate the log, unlink old snapshots.

        This is the §4.3 deletion guarantee made physical: after this
        returns, the store directory holds exactly one snapshot of the
        live entries plus an empty log — tombstoned values' bytes are in
        no remaining file.
        """
        if self._crashed:
            raise StorageError("engine hit an injected crash; reopen the store")
        log_records_before = self._log_records
        snap_lsn = self._lsn
        live_count = sum(len(entries) for entries in self._live.values())
        with obs.span(
            "store.compact", component=self.component, backend=self.backend,
            live=live_count,
        ):
            final = os.path.join(self.path, snapshot_name(snap_lsn))
            tmp = final + ".tmp"
            try:
                with open(tmp, "wb") as handle:
                    handle.write(encode_header(SNAPSHOT_MAGIC, self._sealed, snap_lsn))
                    for namespace in sorted(self._live):
                        for key in sorted(self._live[namespace]):
                            stored = seal_value(
                                self._box, namespace, key, self._live[namespace][key]
                            )
                            handle.write(
                                encode_record(snap_lsn, OP_PUT, namespace, key, stored)
                            )
                    handle.flush()
                    os.fsync(handle.fileno())
                self._fire("snapshot.before_rename")
                os.replace(tmp, final)
                _fsync_dir(self.path)
                self._fire("snapshot.after_rename")
                # the log is now fully covered by the snapshot: start fresh
                self._handle.close()
                self._write_fresh_log(base_lsn=snap_lsn)
                self._handle = open(self._log_path, "ab")
                self._fire("compact.after_truncate")
            except SimulatedCrash:
                self._crashed = True
                raise
            for lsn, path in self._snapshot_files():
                if lsn != snap_lsn:
                    os.unlink(path)
            _fsync_dir(self.path)
        self._log_records = 0
        self.compactions += 1
        return {
            "backend": self.backend,
            "snapshot_lsn": snap_lsn,
            "live_records": live_count,
            "dropped_records": max(0, log_records_before - live_count),
        }

    # -- lifecycle / introspection ---------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if not self._crashed:
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except (OSError, ValueError):
                pass
        self._handle.close()

    @property
    def healthy(self) -> bool:
        return not self._crashed and not self._closed

    def status(self) -> dict:
        live = sum(len(entries) for entries in self._live.values())
        return {
            "backend": self.backend,
            "durable": self.durable,
            "path": self.path,
            "sealed": self._sealed,
            "last_committed_lsn": self._lsn,
            "records_appended": self.records_appended,
            "live_records": live,
            "tombstones": self.tombstones_appended,
            "log_records": self._log_records,
            "compactions": self.compactions,
            "recovery": {
                "snapshot_lsn": self.recovery.snapshot_lsn,
                "log_records_replayed": self.recovery.log_records_replayed,
                "torn_bytes": self.recovery.torn_bytes,
                "live_records": self.recovery.live_records,
                "snapshots_skipped": self.recovery.snapshots_skipped,
                "clean": self.recovery.clean,
                "duration_s": self.recovery.duration_s,
            },
            "namespaces": {
                namespace: len(entries)
                for namespace, entries in sorted(self._live.items())
                if entries
            },
        }
