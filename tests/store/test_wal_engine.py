"""WAL backend: append/recover semantics, verified deletion, corruption."""

import os

import pytest

from repro.errors import CorruptRecordError, RecoveryError, StorageError
from repro.store import (
    FaultPlan,
    SimulatedCrash,
    WalEngine,
    corrupt_crc,
    corrupt_length,
    inspect_store,
    tear_tail,
)
from repro.store.records import MAX_RECORD_LEN
from repro.store.wal import LOG_NAME

KEY = bytes(range(32))


def all_store_bytes(path: str) -> bytes:
    blob = b""
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as handle:
            blob += handle.read()
    return blob


class TestRoundtrip:
    def test_put_get_delete_survive_reopen(self, tmp_path):
        path = str(tmp_path / "store")
        with WalEngine(path) as engine:
            engine.put("items", b"a", b"alpha")
            engine.put("items", b"b", b"beta")
            engine.put("subs", b"t\x00alice", b"")
            engine.delete("items", b"a")
            assert engine.get("items", b"a") is None
            assert engine.get("items", b"b") == b"beta"
        with WalEngine(path) as engine:
            assert engine.recovery.log_records_replayed == 4
            assert engine.recovery.clean
            assert engine.get("items", b"a") is None
            assert engine.get("items", b"b") == b"beta"
            assert engine.items("subs") == [(b"t\x00alice", b"")]
            assert engine.status()["last_committed_lsn"] == 4

    def test_last_writer_wins_across_reopen(self, tmp_path):
        path = str(tmp_path / "store")
        with WalEngine(path) as engine:
            for generation in range(3):
                engine.put("items", b"k", f"gen-{generation}".encode())
        with WalEngine(path) as engine:
            assert engine.get("items", b"k") == b"gen-2"

    def test_delete_is_idempotent_and_missing_key_is_none(self, tmp_path):
        with WalEngine(str(tmp_path / "store")) as engine:
            engine.delete("items", b"ghost")
            assert engine.get("items", b"ghost") is None
            assert engine.items("items") == []


class TestVerifiedDeletion:
    def test_compaction_scrubs_deleted_values_from_every_file(self, tmp_path):
        path = str(tmp_path / "store")
        secret = b"EXPIRED-CIPHERTEXT-MUST-NOT-SURVIVE"
        with WalEngine(path) as engine:
            engine.put("items", b"doomed", secret)
            engine.put("items", b"kept", b"still-live")
            assert secret in all_store_bytes(path)  # in the log pre-compaction
            engine.delete("items", b"doomed")
            assert secret in all_store_bytes(path)  # tombstoned, bytes remain
            engine.compact()
            assert secret not in all_store_bytes(path)
            assert engine.get("items", b"kept") == b"still-live"
        with WalEngine(path) as engine:
            assert engine.get("items", b"doomed") is None
            assert engine.get("items", b"kept") == b"still-live"

    def test_sealed_values_never_touch_disk_in_the_clear(self, tmp_path):
        path = str(tmp_path / "store")
        plaintext = b"THE-PAYLOAD-CIPHERTEXT"
        with WalEngine(path, key=KEY) as engine:
            engine.put("items", b"g", plaintext)
            engine.compact()
        assert plaintext not in all_store_bytes(path)
        with WalEngine(path, key=KEY) as engine:
            assert engine.get("items", b"g") == plaintext

    def test_sealing_flag_mismatch_refuses_to_open(self, tmp_path):
        path = str(tmp_path / "store")
        with WalEngine(path, key=KEY) as engine:
            engine.put("items", b"g", b"v")
        with pytest.raises(RecoveryError):
            WalEngine(path)

    def test_compaction_keeps_exactly_one_snapshot(self, tmp_path):
        path = str(tmp_path / "store")
        with WalEngine(path) as engine:
            for index in range(4):
                engine.put("items", bytes([index]), b"v")
                engine.compact()
            snapshots = [n for n in os.listdir(path) if n.endswith(".snap")]
            assert len(snapshots) == 1

    def test_auto_compaction_at_snapshot_every(self, tmp_path):
        path = str(tmp_path / "store")
        with WalEngine(path, snapshot_every=8) as engine:
            for index in range(20):
                engine.put("items", bytes([index]), b"v" * 10)
            assert engine.compactions >= 2
        with WalEngine(path, snapshot_every=8) as engine:
            # replay cost is bounded by snapshot_every, not history length
            assert engine.recovery.log_records_replayed < 8
            assert engine.count("items") == 20


class TestCorruption:
    def fill(self, path: str) -> None:
        with WalEngine(path) as engine:
            for index in range(5):
                engine.put("items", bytes([index]), b"payload-%d" % index)

    def test_torn_tail_is_truncated_and_prefix_recovered(self, tmp_path):
        path = str(tmp_path / "store")
        self.fill(path)
        tear_tail(os.path.join(path, LOG_NAME), drop_bytes=7)
        with WalEngine(path) as engine:
            assert not engine.recovery.clean
            assert engine.recovery.torn_bytes > 0
            assert engine.count("items") == 4  # last record lost, prefix intact
            assert engine.status()["last_committed_lsn"] == 4
        with WalEngine(path) as engine:
            assert engine.recovery.clean  # the tail was truncated off

    def test_corrupt_final_record_treated_as_torn_tail(self, tmp_path):
        path = str(tmp_path / "store")
        self.fill(path)
        corrupt_crc(os.path.join(path, LOG_NAME), record_index=-1)
        with WalEngine(path) as engine:
            assert engine.count("items") == 4

    def test_corrupt_middle_record_raises_not_truncates(self, tmp_path):
        """A bad CRC with committed records after it is corruption, not a
        crash residue — silently truncating would drop committed data."""
        path = str(tmp_path / "store")
        self.fill(path)
        corrupt_crc(os.path.join(path, LOG_NAME), record_index=1)
        with pytest.raises(CorruptRecordError):
            WalEngine(path)

    def test_corrupt_length_prefix_mid_file_is_corruption_not_a_tear(self, tmp_path):
        """A damaged length prefix can claim bytes all the way past EOF;
        honouring it as a torn tail would silently swallow the committed
        records after it.  A torn append can only leave behind a prefix
        of a real (bounded-length) frame, so an implausible length is
        always corruption."""
        path = str(tmp_path / "store")
        self.fill(path)
        corrupt_length(os.path.join(path, LOG_NAME), record_index=1)
        with pytest.raises(CorruptRecordError):
            WalEngine(path)

    def test_corrupt_length_prefix_on_final_record_is_corruption_too(self, tmp_path):
        path = str(tmp_path / "store")
        self.fill(path)
        corrupt_length(os.path.join(path, LOG_NAME), record_index=-1)
        with pytest.raises(CorruptRecordError):
            WalEngine(path)

    def test_oversized_value_refused_at_write_time(self, tmp_path):
        """The MAX_RECORD_LEN bound the scanner relies on is enforced on
        the write path, so every on-disk length a writer produced passes
        the recovery sanity check."""
        with WalEngine(str(tmp_path / "store")) as engine:
            with pytest.raises(CorruptRecordError):
                engine.put("items", b"k", bytes(MAX_RECORD_LEN))

    def test_write_after_injected_crash_refuses(self, tmp_path):
        path = str(tmp_path / "store")
        engine = WalEngine(path, faults=FaultPlan("append.before_write"))
        with pytest.raises(SimulatedCrash):
            engine.put("items", b"k", b"v")
        with pytest.raises(StorageError):
            engine.put("items", b"k", b"v")
        assert not engine.healthy


class TestSnapshotFallback:
    def test_corrupt_newest_snapshot_falls_back_when_log_still_covers_it(
        self, tmp_path
    ):
        """A crash between the snapshot rename and the log truncation
        leaves two snapshots and a log still based on the older one; if
        the newest then rots, recovery loads the older snapshot and
        replays the full log — nothing committed is lost."""
        path = str(tmp_path / "store")
        with WalEngine(path) as engine:
            engine.put("items", b"a", b"v1")
            engine.compact()  # snapshot A
            engine.put("items", b"b", b"v2")
        engine = WalEngine(path, faults=FaultPlan("snapshot.after_rename"))
        engine.put("items", b"c", b"v3")
        with pytest.raises(SimulatedCrash):
            engine.compact()  # snapshot B renamed in; log/unlink never ran
        snapshots = sorted(n for n in os.listdir(path) if n.endswith(".snap"))
        assert len(snapshots) == 2
        corrupt_crc(os.path.join(path, snapshots[-1]))  # bit rot in the newest
        with WalEngine(path) as recovered:
            assert recovered.recovery.snapshots_skipped == 1
            assert not recovered.recovery.clean
            assert dict(recovered.items("items")) == {
                b"a": b"v1",
                b"b": b"v2",
                b"c": b"v3",
            }

    def test_corrupt_snapshot_with_truncated_log_refuses_to_open(self, tmp_path):
        """Once compaction truncated the log to the newest snapshot, that
        snapshot is the only copy of the older records — if it is corrupt
        the state is genuinely unrecoverable, and the open must say so
        rather than come up with a silently partial store."""
        path = str(tmp_path / "store")
        with WalEngine(path) as engine:
            engine.put("items", b"a", b"v1")
            engine.put("items", b"b", b"v2")
            engine.compact()
        snapshots = [n for n in os.listdir(path) if n.endswith(".snap")]
        assert len(snapshots) == 1
        corrupt_crc(os.path.join(path, snapshots[0]))
        with pytest.raises(RecoveryError):
            WalEngine(path)


class TestInspect:
    def test_inspect_reports_counts_without_key(self, tmp_path):
        path = str(tmp_path / "store")
        with WalEngine(path, key=KEY) as engine:
            engine.put("items", b"a", b"v1")
            engine.put("items", b"b", b"v2")
            engine.delete("items", b"a")
        report = inspect_store(path)
        assert report["backend"] == "wal"
        assert report["sealed"] is True
        assert report["last_committed_lsn"] == 3
        assert report["live_records"] == 1
        assert report["tombstones"] == 1
        assert report["total_records"] == 3
        assert report["live_ratio"] == pytest.approx(1 / 3)
        assert report["namespaces"] == {"items": 1}
        assert report["torn_tail_bytes"] == 0

    def test_inspect_sees_torn_tail(self, tmp_path):
        path = str(tmp_path / "store")
        with WalEngine(path) as engine:
            engine.put("items", b"a", b"v1")
            engine.put("items", b"b", b"v2")
        tear_tail(os.path.join(path, LOG_NAME), drop_bytes=5)
        report = inspect_store(path)
        # what the next open will truncate: the surviving partial frame
        assert report["torn_tail_bytes"] > 0
        assert report["live_records"] == 1
