"""RepositoryStore over durable engines: recovery, GC, verified deletion."""

import os

import pytest

from repro.core.messages import PayloadSubmission
from repro.core.rs import RepositoryStore
from repro.store import BACKENDS, open_engine

KEY = bytes(range(64, 96))
# every backend that promises recovery is held to the same cases
DURABLE_BACKENDS = [name for name in BACKENDS if name != "memory"]


def open_engine_at(backend: str, root: str, key=None):
    return open_engine(backend, os.path.join(root, "rs"), key=key)


def store_bytes(root: str) -> bytes:
    """Every byte of every file the store left on disk."""
    blob = b""
    directory = os.path.join(root, "rs")
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            blob += handle.read()
    return blob


def submission(guid: bytes, ciphertext: bytes, ttl_s: float = 100.0):
    return PayloadSubmission(guid=guid, ciphertext=ciphertext, ttl_s=ttl_s)


@pytest.mark.parametrize("backend", DURABLE_BACKENDS)
class TestRecovery:
    def test_items_survive_reopen_with_ttl_intact(self, tmp_path, backend):
        root = str(tmp_path)
        store = RepositoryStore(t_g=10.0, engine=open_engine_at(backend, root))
        store.store(submission(b"guid-1", b"ciphertext-one"), now=5.0)
        store.store(submission(b"guid-2", b"ciphertext-two", ttl_s=1.0), now=5.0)
        store.close()

        recovered = RepositoryStore(t_g=10.0, engine=open_engine_at(backend, root))
        assert recovered.recovered_count == 2
        assert recovered.lookup(b"guid-1", now=6.0)[1] == "hit"
        # expiry clocks carried over: guid-2 dies at 5 + 1 + 10 = 16
        assert recovered.holds(b"guid-2", now=15.9)
        assert not recovered.holds(b"guid-2", now=16.0)
        recovered.close()

    def test_gc_tombstones_then_compaction_scrubs_ciphertext(self, tmp_path, backend):
        root = str(tmp_path)
        secret = b"EXPIRED-PAYLOAD-CIPHERTEXT-BYTES"
        store = RepositoryStore(t_g=0.0, engine=open_engine_at(backend, root))
        store.store(submission(b"doomed", secret, ttl_s=1.0), now=0.0)
        store.store(submission(b"alive", b"fresh-bytes", ttl_s=500.0), now=0.0)
        assert store.collect_garbage(now=2.0, compact=True) == 1
        store.close()
        # §4.3 deletion, verified: the expired ciphertext is in NO store file
        assert secret not in store_bytes(root)

        recovered = RepositoryStore(t_g=0.0, engine=open_engine_at(backend, root))
        assert recovered.recovered_count == 1  # no resurrection
        assert not recovered.holds(b"doomed", now=2.0)
        assert recovered.holds(b"alive", now=2.0)
        recovered.close()

    def test_sealed_rs_ciphertext_never_in_the_clear_on_disk(self, tmp_path, backend):
        root = str(tmp_path)
        payload = b"CPABE-CIPHERTEXT-AT-REST"
        store = RepositoryStore(engine=open_engine_at(backend, root, key=KEY))
        store.store(submission(b"guid", payload), now=0.0)
        store.close()
        assert payload not in store_bytes(root)
        recovered = RepositoryStore(engine=open_engine_at(backend, root, key=KEY))
        assert recovered.lookup(b"guid", now=1.0)[0][1:] == payload
        recovered.close()

    def test_request_counts_are_not_protocol_state(self, tmp_path, backend):
        root = str(tmp_path)
        store = RepositoryStore(engine=open_engine_at(backend, root))
        store.store(submission(b"guid", b"ct"), now=0.0)
        store.lookup(b"guid", now=1.0)
        assert store.request_count(b"guid") == 1
        store.close()
        recovered = RepositoryStore(engine=open_engine_at(backend, root))
        assert recovered.request_count(b"guid") == 0  # observability resets
        recovered.close()


@pytest.mark.parametrize("backend", DURABLE_BACKENDS)
class TestClockEpochRebase:
    """Persisted expiries come from the storing process's clock
    (time.monotonic live), whose epoch dies with a reboot.  Recovery with
    ``now`` rebases each item onto the live clock via the wall-clock
    timestamp persisted alongside it, so the §4.3 TTL guarantee holds
    across reboots, not just same-boot restarts."""

    def test_reboot_dead_epoch_items_still_expire_on_schedule(self, tmp_path, backend):
        root = str(tmp_path)
        # previous boot: monotonic clock deep into its epoch
        store = RepositoryStore(
            t_g=5.0,
            engine=open_engine_at(backend, root),
            wall_clock=lambda: 1_000_000.0,
        )
        store.store(submission(b"guid", b"ct", ttl_s=10.0), now=98_765.0)
        store.close()
        # after reboot: monotonic restarted near zero, and an hour of
        # real time passed — far beyond TTL_item + T_G = 15 s.  Without
        # the rebase, expires_at=98_780 from the dead epoch would compare
        # above the new clock for ~27 hours and GC would retain the
        # expired ciphertext the whole time.
        recovered = RepositoryStore(
            t_g=5.0,
            engine=open_engine_at(backend, root),
            now=3.0,
            wall_clock=lambda: 1_003_600.0,
        )
        assert recovered.recovered_count == 1
        assert not recovered.holds(b"guid", now=3.0)
        assert recovered.collect_garbage(now=3.0) == 1
        recovered.close()

    def test_same_boot_restart_preserves_remaining_ttl(self, tmp_path, backend):
        root = str(tmp_path)
        store = RepositoryStore(
            t_g=5.0, engine=open_engine_at(backend, root), wall_clock=lambda: 500.0
        )
        store.store(submission(b"guid", b"ct", ttl_s=10.0), now=100.0)
        store.close()
        # 4 real seconds later, same clock epoch: rebasing reproduces the
        # original schedule (item still dies at 100 + 10 + 5 = 115)
        recovered = RepositoryStore(
            t_g=5.0,
            engine=open_engine_at(backend, root),
            now=104.0,
            wall_clock=lambda: 504.0,
        )
        assert recovered.holds(b"guid", now=114.9)
        assert not recovered.holds(b"guid", now=115.0)
        recovered.close()

    def test_backward_wall_clock_jump_never_extends_ttl(self, tmp_path, backend):
        root = str(tmp_path)
        store = RepositoryStore(
            t_g=0.0, engine=open_engine_at(backend, root), wall_clock=lambda: 900.0
        )
        store.store(submission(b"guid", b"ct", ttl_s=10.0), now=50.0)
        store.close()
        # NTP stepped the wall clock backward across the restart: elapsed
        # clamps to zero, granting the full TTL again at worst
        recovered = RepositoryStore(
            t_g=0.0,
            engine=open_engine_at(backend, root),
            now=60.0,
            wall_clock=lambda: 880.0,
        )
        assert recovered.holds(b"guid", now=69.9)
        assert not recovered.holds(b"guid", now=70.0)
        recovered.close()


class TestMemoryEngineUnchanged:
    def test_default_store_is_volatile_and_recovers_nothing(self):
        store = RepositoryStore()
        store.store(submission(b"guid", b"ct"), now=0.0)
        assert store.engine.backend == "memory"
        assert store.recovered_count == 0
        assert not store.engine.durable
