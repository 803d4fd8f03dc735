"""Keyless store-file inspection — the engine under ``repro store inspect``.

Operators debugging a deployment need to answer "what is in this store?"
without the store key (which lives in the deployment state bundle, not
on whatever box the files were copied to).  Record *framing* — LSNs,
ops, namespaces, keys, counts — is deliberately left in the clear for
exactly this reason; only values are sealed.

:func:`inspect_store` takes a WAL store directory (one holding
``wal.log``) and returns a plain dict: record counts, live/tombstone
ratio, last committed LSN, snapshot coverage, and whether the log
carries a torn tail that the next open would truncate.
"""

from __future__ import annotations

import os

from ..errors import StorageError
from .records import (
    HEADER_LEN,
    LOG_MAGIC,
    SNAPSHOT_MAGIC,
    decode_header,
    iter_live,
    scan_frames,
)
from .wal import LOG_NAME, SNAPSHOT_PREFIX, SNAPSHOT_SUFFIX

__all__ = ["inspect_store", "format_inspection"]


def inspect_store(path: str) -> dict:
    """Summarize one WAL store directory without a key."""
    if os.path.isdir(path):
        if not os.path.exists(os.path.join(path, LOG_NAME)):
            raise StorageError(f"{path} is a directory but holds no {LOG_NAME}")
        return _inspect_wal(path)
    if os.path.isfile(path):
        with open(path, "rb") as handle:
            magic = handle.read(len(LOG_MAGIC))
        if magic in (LOG_MAGIC, SNAPSHOT_MAGIC):
            raise StorageError(
                f"{path} is a single WAL store file; inspect its directory instead"
            )
        raise StorageError(f"{path} is not a WAL store directory")
    raise StorageError(f"no store at {path}")


def _inspect_wal(path: str) -> dict:
    snapshots = []
    for name in sorted(os.listdir(path)):
        if name.startswith(SNAPSHOT_PREFIX) and name.endswith(SNAPSHOT_SUFFIX):
            snapshots.append(os.path.join(path, name))
    snapshot_lsn = 0
    snapshot_records = []
    snapshot_ok = True
    if snapshots:
        with open(snapshots[-1], "rb") as handle:
            data = handle.read()
        try:
            _sealed, snapshot_lsn = decode_header(data, SNAPSHOT_MAGIC)
            snapshot_records = scan_frames(data, start=HEADER_LEN, strict=True).records
        except StorageError:
            snapshot_ok = False
    with open(os.path.join(path, LOG_NAME), "rb") as handle:
        data = handle.read()
    sealed, _base = decode_header(data, LOG_MAGIC)
    log = scan_frames(data, start=HEADER_LEN, strict=False)
    replayable = [r for r in log.records if r.lsn > snapshot_lsn]
    tombstones = sum(1 for r in replayable if r.is_tombstone)
    live = iter_live(iter(list(snapshot_records) + replayable))
    lsns = [snapshot_lsn] + [r.lsn for r in replayable]
    namespaces: dict[str, int] = {}
    for namespace, _key in live:
        namespaces[namespace] = namespaces.get(namespace, 0) + 1
    total = len(snapshot_records) + len(replayable)
    return {
        "backend": "wal",
        "path": path,
        "sealed": sealed,
        "last_committed_lsn": max(lsns),
        "snapshot_lsn": snapshot_lsn,
        "snapshot_ok": snapshot_ok,
        "snapshot_records": len(snapshot_records),
        "log_records": len(replayable),
        "total_records": total,
        "live_records": len(live),
        "tombstones": tombstones,
        "live_ratio": (len(live) / total) if total else 1.0,
        "torn_tail_bytes": (len(data) - log.torn_at) if log.torn_at is not None else 0,
        "namespaces": dict(sorted(namespaces.items())),
    }


def format_inspection(report: dict) -> str:
    """Human-readable rendering for the CLI."""
    lines = [
        f"{report['backend']} store at {report['path']}",
        f"  sealed values: {'yes' if report['sealed'] else 'no'}; "
        f"snapshot lsn {report['snapshot_lsn']}"
        + ("" if report["snapshot_ok"] else " (CORRUPT)"),
        f"  records: {report['snapshot_records']} snapshot "
        f"+ {report['log_records']} log = {report['total_records']}",
    ]
    if report["torn_tail_bytes"]:
        lines.append(
            f"  torn tail: {report['torn_tail_bytes']} bytes "
            f"(next open truncates them)"
        )
    lines.append(
        f"  live: {report['live_records']}  tombstones: {report['tombstones']}  "
        f"live ratio: {report['live_ratio']:.2f}"
    )
    lines.append(f"  last committed LSN: {report['last_committed_lsn']}")
    for namespace, count in report["namespaces"].items():
        lines.append(f"    {namespace}: {count} live")
    return "\n".join(lines)
