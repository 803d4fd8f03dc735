"""The crash battery: fire every injection point, reopen, compare states.

The invariant under test (docs/PERSISTENCE.md): after a crash at *any*
point, reopening the store recovers exactly the committed state — every
mutation whose call returned is present, no tombstoned entry is
resurrected, and the only permitted divergence is the in-flight record
at the instant of death, which may legally be present iff its full frame
reached the file (``append.after_write`` / ``append.after_fsync``).

A "crash" here drops the engine object without closing it (a real
``kill -9`` runs no destructors) and re-opens the directory.
"""

import pytest

from repro.store import WalEngine
from repro.store.faults import CRASH_POINTS, FaultPlan, SimulatedCrash

APPEND_POINTS = tuple(p for p in CRASH_POINTS if p.startswith("append."))
COMPACT_POINTS = tuple(p for p in CRASH_POINTS if not p.startswith("append."))
# the in-flight record's full frame reached the file at these points, so
# recovery legitimately replays it even though the call never returned
DURABLE_BEFORE_RETURN = ("append.after_write", "append.after_fsync")


def run_workload(engine, committed):
    """Mutate the store, mirroring into ``committed`` only after each call
    returns; returns normally or propagates SimulatedCrash mid-way."""
    for index in range(8):
        key = f"k{index}".encode()
        value = (f"value-{index}-" * 3).encode()
        engine.put("items", key, value)
        committed[key] = value
        if index % 3 == 2:
            victim = f"k{index - 1}".encode()
            engine.delete("items", victim)
            del committed[victim]


class TestAppendCrashes:
    @pytest.mark.parametrize("point", APPEND_POINTS)
    @pytest.mark.parametrize("hit", [1, 4, 9])
    def test_recovery_equals_committed_state(self, tmp_path, point, hit):
        path = str(tmp_path / "store")
        committed: dict[bytes, bytes] = {}
        engine = WalEngine(path, faults=FaultPlan(point, hit=hit))
        in_flight = None

        def tracked_put(ns, key, value, _put=engine.put):
            nonlocal in_flight
            in_flight = ("put", key, value)
            lsn = _put(ns, key, value)
            in_flight = None
            return lsn

        def tracked_delete(ns, key, _delete=engine.delete):
            nonlocal in_flight
            in_flight = ("delete", key, None)
            lsn = _delete(ns, key)
            in_flight = None
            return lsn

        engine.put, engine.delete = tracked_put, tracked_delete
        with pytest.raises(SimulatedCrash):
            run_workload(engine, committed)
        assert in_flight is not None

        expected = dict(committed)
        if point in DURABLE_BEFORE_RETURN:
            op, key, value = in_flight
            if op == "put":
                expected[key] = value
            else:
                expected.pop(key, None)

        recovered = WalEngine(path)
        assert dict(recovered.items("items")) == expected
        assert recovered.recovery.clean == (point != "append.partial_write")
        # and the reopened store accepts writes again
        recovered.put("items", b"post-crash", b"ok")
        assert dict(recovered.items("items")).get(b"post-crash") == b"ok"
        recovered.close()

    @pytest.mark.parametrize("point", APPEND_POINTS)
    def test_no_tombstone_resurrection(self, tmp_path, point):
        """A committed delete stays deleted whatever the next crash does."""
        path = str(tmp_path / "store")
        with WalEngine(path) as engine:
            engine.put("items", b"victim", b"gone")
            engine.delete("items", b"victim")
        engine = WalEngine(path, faults=FaultPlan(point))
        with pytest.raises(SimulatedCrash):
            engine.put("items", b"next", b"v")
        recovered = WalEngine(path)
        assert dict(recovered.items("items")).get(b"victim") is None
        recovered.close()


class TestCompactionCrashes:
    @pytest.mark.parametrize("point", COMPACT_POINTS)
    def test_crash_during_compaction_loses_nothing(self, tmp_path, point):
        path = str(tmp_path / "store")
        committed: dict[bytes, bytes] = {}
        engine = WalEngine(path, faults=FaultPlan(point))
        run_workload(engine, committed)  # append points are unarmed: completes
        with pytest.raises(SimulatedCrash):
            engine.compact()
        recovered = WalEngine(path)
        assert dict(recovered.items("items")) == committed
        assert recovered.status()["last_committed_lsn"] == 10  # 8 puts + 2 deletes, none lost
        # a compaction after recovery completes and converges the files
        recovered.compact()
        recovered.close()
        final = WalEngine(path)
        assert dict(final.items("items")) == committed
        final.close()

    def test_double_crash_same_point_still_recovers(self, tmp_path):
        """Crashing again during the recovery-side compaction is survivable."""
        path = str(tmp_path / "store")
        committed: dict[bytes, bytes] = {}
        engine = WalEngine(path, faults=FaultPlan("snapshot.after_rename"))
        run_workload(engine, committed)
        with pytest.raises(SimulatedCrash):
            engine.compact()
        engine = WalEngine(path, faults=FaultPlan("snapshot.after_rename"))
        with pytest.raises(SimulatedCrash):
            engine.compact()
        recovered = WalEngine(path)
        assert dict(recovered.items("items")) == committed
        recovered.close()
