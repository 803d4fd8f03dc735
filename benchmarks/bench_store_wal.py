"""PR-6 storage layer: append/fsync throughput, recovery time, GC cost.

What does durability cost, and what does recovery buy back?  Three
measurements over real files in a temp directory:

* **append throughput** — WAL puts/second with ``fsync=True`` (the
  committed-on-return guarantee) vs ``fsync=False`` (OS page cache).
  The fsync column is the price of "a put that returned survives
  ``kill -9``";
* **recovery time vs log size** — time to open a store whose log holds
  N unsnapshotted records, and the same store after ``compact()``
  (recovery then reads one snapshot and an empty log — the
  ``snapshot_every`` bound in action);
* **GC sweep cost** — one ``collect_garbage`` over a store of mostly
  live items: the expiry min-heap sweep vs the pre-heap full scan
  (reproduced inline), at growing store sizes.

Run with ``-s`` for the table; ``P3S_WRITE_BENCH=1`` writes
``BENCH_pr6.json`` at the repo root (the committed record).
"""

from __future__ import annotations

import os
import time

import pytest
from conftest import BenchRecord

from repro.core.messages import PayloadSubmission
from repro.core.rs import RepositoryStore
from repro.store import WalEngine

APPEND_RECORDS = 300
VALUE_BYTES = 512
RECOVERY_SIZES = (256, 1024, 4096)
GC_SIZES = (1_000, 10_000, 50_000)
GC_EXPIRED = 20


def _bench_appends(tmp_path) -> dict:
    value = os.urandom(VALUE_BYTES)
    results = {}
    for label, factory in (
        ("wal_fsync", lambda p: WalEngine(p, fsync=True, snapshot_every=0)),
        ("wal_nofsync", lambda p: WalEngine(p, fsync=False, snapshot_every=0)),
    ):
        engine = factory(str(tmp_path / label))
        start = time.perf_counter()
        for index in range(APPEND_RECORDS):
            engine.put("items", index.to_bytes(8, "big"), value)
        elapsed = time.perf_counter() - start
        engine.close()
        results[label] = {
            "records": APPEND_RECORDS,
            "value_bytes": VALUE_BYTES,
            "seconds": elapsed,
            "records_per_s": APPEND_RECORDS / elapsed,
        }
    return results


def _bench_recovery(tmp_path) -> list[dict]:
    value = os.urandom(128)
    rows = []
    for size in RECOVERY_SIZES:
        path = str(tmp_path / f"recover-{size}")
        with WalEngine(path, fsync=False, snapshot_every=0) as engine:
            for index in range(size):
                engine.put("items", index.to_bytes(8, "big"), value)
        start = time.perf_counter()
        engine = WalEngine(path, fsync=False, snapshot_every=0)
        replay_s = time.perf_counter() - start
        assert engine.recovery.log_records_replayed == size
        engine.compact()
        engine.close()
        start = time.perf_counter()
        engine = WalEngine(path, fsync=False, snapshot_every=0)
        snapshot_s = time.perf_counter() - start
        assert engine.recovery.log_records_replayed == 0
        engine.close()
        rows.append(
            {
                "log_records": size,
                "replay_open_s": replay_s,
                "post_compaction_open_s": snapshot_s,
                "speedup": replay_s / snapshot_s if snapshot_s else float("inf"),
            }
        )
    return rows


def _naive_sweep(items: dict, now: float) -> int:
    """The pre-heap GC: examine every live item on every sweep."""
    expired = [guid for guid, expires_at in items.items() if expires_at <= now]
    for guid in expired:
        del items[guid]
    return len(expired)


def _bench_gc(sizes=GC_SIZES) -> list[dict]:
    rows = []
    for size in sizes:
        store = RepositoryStore(t_g=0.0)
        naive: dict[bytes, float] = {}
        for index in range(size):
            guid = index.to_bytes(8, "big")
            store.store(PayloadSubmission(guid=guid, ciphertext=b"ct", ttl_s=1e9), now=0.0)
            naive[guid] = 1e9
        for index in range(GC_EXPIRED):
            guid = b"dead-%06d" % index
            store.store(PayloadSubmission(guid=guid, ciphertext=b"ct", ttl_s=1.0), now=0.0)
            naive[guid] = 1.0
        start = time.perf_counter()
        removed_heap = store.collect_garbage(now=10.0)
        heap_s = time.perf_counter() - start
        start = time.perf_counter()
        removed_naive = _naive_sweep(naive, now=10.0)
        naive_s = time.perf_counter() - start
        assert removed_heap == removed_naive == GC_EXPIRED
        rows.append(
            {
                "live_items": size,
                "expired": GC_EXPIRED,
                "heap_sweep_s": heap_s,
                "heap_examined": store.last_gc_examined,
                "full_scan_s": naive_s,
                "full_scan_examined": size + GC_EXPIRED,
                "speedup": naive_s / heap_s if heap_s else float("inf"),
            }
        )
    return rows


def test_bench_store_wal(tmp_path, bench_writer):
    appends = _bench_appends(tmp_path)
    recovery = _bench_recovery(tmp_path)
    gc = _bench_gc()

    print()
    print("append throughput (512-byte values):")
    for label, row in appends.items():
        print(f"  {label:12s} {row['records_per_s']:10.0f} rec/s")
    print("recovery open time:")
    for row in recovery:
        print(
            f"  {row['log_records']:6d} log records: replay {row['replay_open_s'] * 1e3:7.1f} ms, "
            f"after compaction {row['post_compaction_open_s'] * 1e3:7.1f} ms "
            f"({row['speedup']:.1f}x)"
        )
    print(f"gc sweep ({GC_EXPIRED} expired):")
    for row in gc:
        print(
            f"  {row['live_items']:6d} live: heap {row['heap_sweep_s'] * 1e6:8.1f} us "
            f"({row['heap_examined']} examined) vs full scan "
            f"{row['full_scan_s'] * 1e6:8.1f} us ({row['full_scan_examined']} examined)"
        )

    # the claims the numbers must back, whatever the machine:
    assert appends["wal_nofsync"]["records_per_s"] > appends["wal_fsync"]["records_per_s"]
    assert all(row["heap_examined"] == GC_EXPIRED for row in gc)

    append_floors = {"wal_fsync": 50.0, "wal_nofsync": 500.0}
    written = bench_writer(
        "BENCH_pr6.json",
        suite="store",
        workload={
            "append_records": APPEND_RECORDS,
            "value_bytes": VALUE_BYTES,
            "gc_expired": GC_EXPIRED,
        },
        records=[
            BenchRecord(
                f"store.{backend}_records_per_s",
                row["records_per_s"],
                "ops/s",
                floor=append_floors[backend],
            )
            for backend, row in appends.items()
        ]
        + [
            BenchRecord(
                f"store.compaction_speedup_{row['log_records']}", row["speedup"], "ratio", floor=1.0
            )
            for row in recovery
        ]
        + [
            BenchRecord(f"store.gc_speedup_{row['live_items']}", row["speedup"], "ratio", floor=1.0)
            for row in gc
        ],
    )
    if written is not None:
        print(f"wrote {written}")
