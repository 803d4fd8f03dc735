"""Shard restart hygiene: crashing and restarting a DS shard ten times
must not leak worker processes or file descriptors.

The DS's match pool forks real OS processes (``match_workers >= 2``, once
it matches ``SPLIT_AT`` distinct tokens: these tests lower the constant to
one, so a single token forks them); ``crash()`` must terminate and reap
them, and the lazily re-created pool after ``restart()`` must not stack
resources on the previous generation's.  Measured with
``multiprocessing.active_children()`` (also reaps zombies) and
``/proc/self/fd``.
"""

from __future__ import annotations

import gc
import multiprocessing
import os

import pytest

from repro.core.publisher import encrypt_metadata_envelope
from repro.core.system import P3SSystem
from repro.par import pool as pool_mod
from repro.pbe.hve import HVE
from repro.pbe.schema import Interest

from ..live.conftest import small_config

CYCLES = 10


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _children() -> int:
    return len(multiprocessing.active_children())


@pytest.fixture(autouse=True)
def one_token_splits(monkeypatch):
    monkeypatch.setitem(pool_mod.SPLIT_AT, "TOY", 1)


def _match_one(system, ds, tokens: list[bytes]) -> None:
    """One publication through ``ds``'s pool: forks its workers, if any."""
    ciphertext = encrypt_metadata_envelope(
        HVE(system.group), system.group, system.ara._hve_public, system.config.schema,
        {"topic": "a", "prio": "lo"}, b"\x00" * 16,
    )  # fmt: skip
    ds.match_pool.match(ciphertext, tokens)


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs procfs fd accounting"
)
class TestShardRestartLeaks:
    def test_ten_crash_restart_cycles_hold_processes_and_fds_flat(self):
        config = small_config(
            ds_shards=2,
            rs_shards=2,
            rs_replication=2,
            delegated_matching=True,
            match_workers=2,
        )
        system = P3SSystem(config)
        try:
            alice = system.add_subscriber("alice", {"org"})
            system.subscribe(alice, Interest({"topic": "a"}))
            system.run()

            gc.collect()
            baseline_children = _children()
            baseline_fds = _open_fds()

            ds = system.ds_shards["ds1"]
            tokens = [token for _, token in ds.registered_tokens]
            assert tokens
            for _ in range(CYCLES):
                _match_one(system, ds, tokens)  # fork this generation's workers
                assert _children() == baseline_children + 2
                ds.crash()  # must terminate AND reap them
                assert _children() == baseline_children
                ds.restart()

            gc.collect()
            assert _children() == baseline_children
            # pipes/semaphores from ten dead pools must be gone; small
            # slack for allocator/procfs jitter, nowhere near one pool's
            # worth per cycle
            assert _open_fds() <= baseline_fds + 4
        finally:
            system.close()
        gc.collect()
        assert _children() == baseline_children

    def test_system_close_reaps_every_shards_pool(self):
        config = small_config(
            ds_shards=2, delegated_matching=True, match_workers=2
        )
        system = P3SSystem(config)
        alice = system.add_subscriber("alice", {"org"})
        system.subscribe(alice, Interest({"topic": "a"}))
        system.run()
        before = _children()
        for ds in system.ds_shards.values():
            _match_one(system, ds, [token for _, token in ds.registered_tokens])
        assert _children() == before + 4  # two shards x two workers
        system.close()
        assert _children() == before

    def test_serial_pool_never_forks(self):
        config = small_config(delegated_matching=True, match_workers=1)
        system = P3SSystem(config)
        try:
            alice = system.add_subscriber("alice", {"org"})
            system.subscribe(alice, Interest({"topic": "a"}))
            system.run()
            before = _children()
            _match_one(system, system.ds, [token for _, token in system.ds.registered_tokens])
            assert len(system.ds.match_pool.partitions) == 1
            assert _children() == before
        finally:
            system.close()
