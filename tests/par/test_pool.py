"""MatchPool: serial/parallel equivalence, ordering, lifecycle, metrics,
and the split into worker partitions at ``SPLIT_AT`` distinct tokens.

The parallel partitions are real worker processes; on a single-core
machine they still exercise reconciliation, reassembly and determinism.
A test of worker mechanics on this 7-token fixture lowers ``SPLIT_AT``.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.crypto import randomness
from repro.crypto.group import PairingGroup
from repro.obs import Observability
from repro.par import MatchPool
from repro.par import pool as pool_mod
from repro.pbe.hve import HVE
from repro.pbe.serialize import serialize_hve_ciphertext, serialize_hve_token
from repro.perf.bench import load_history

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))


@pytest.fixture(scope="module")
@randomness.seeded(0x9001)
def fixture_data():
    group = PairingGroup("TOY")
    hve = HVE(group)
    public, master = hve.setup(6)
    x = [1, 0, 1, 0, 0, 1]
    ct = hve.encrypt(public, x, b"pool-guid-000001")
    interests = [
        [1, 0, None, None, None, None],  # match
        [0, 0, None, None, None, None],  # miss
        [None, None, 1, 0, None, 1],  # match
        [None, 1, None, None, None, None],  # miss
        [1, None, 1, None, None, None],  # match
        [1, 1, 1, 1, 1, 1],  # miss
        [None, None, None, None, 0, 1],  # match
    ]
    tokens = [
        serialize_hve_token(group, hve.gen_token(master, y)) for y in interests
    ]
    return group, serialize_hve_ciphertext(group, ct), tokens


EXPECTED_MATCH_INDICES = [0, 2, 4, 6]


def test_serial_match_results(fixture_data):
    group, ct_bytes, tokens = fixture_data
    with MatchPool(group, workers=0) as pool:
        assert len(pool.partitions) == 1
        results = pool.match(ct_bytes, tokens)
    assert len(results) == len(tokens)
    assert [i for i, r in enumerate(results) if r is not None] == EXPECTED_MATCH_INDICES
    assert all(r == b"pool-guid-000001" for r in results if r is not None)


def test_empty_token_list(fixture_data):
    group, ct_bytes, _ = fixture_data
    with MatchPool(group, workers=0) as pool:
        assert pool.match(ct_bytes, []) == []


def test_parallel_identical_and_identically_ordered(fixture_data, monkeypatch):
    group, ct_bytes, tokens = fixture_data
    with MatchPool(group, workers=0) as serial:
        expected = serial.match(ct_bytes, tokens)
    monkeypatch.setitem(pool_mod.SPLIT_AT, "TOY", 1)
    # reassembly is by token bytes, whatever partition holds a token
    for workers in (2, 3):
        with MatchPool(group, workers=workers) as pool:
            assert pool.match(ct_bytes, tokens) == expected
            assert len(pool.partitions) == workers


def test_partitions_share_tokens_evenly(fixture_data, monkeypatch):
    # 7 distinct tokens on 4 partitions: 2+2+2+1, each token in one of them
    group, ct_bytes, tokens = fixture_data
    monkeypatch.setitem(pool_mod.SPLIT_AT, "TOY", 1)
    with MatchPool(group, workers=4) as pool:
        results = pool.match(ct_bytes, tokens)
        loads = sorted(list(pool._home.values()).count(i) for i in range(4))
    assert loads == [1, 2, 2, 2]
    assert [i for i, r in enumerate(results) if r is not None] == EXPECTED_MATCH_INDICES


def test_pool_reuse_across_publications(fixture_data, monkeypatch):
    group, ct_bytes, tokens = fixture_data
    monkeypatch.setitem(pool_mod.SPLIT_AT, "TOY", 1)
    with MatchPool(group, workers=2) as pool:
        first = pool.match(ct_bytes, tokens)
        second = pool.match(ct_bytes, tokens)  # warm worker caches
        assert len(pool.partitions) == 2
    assert first == second


def test_match_indices(fixture_data):
    group, ct_bytes, tokens = fixture_data
    with MatchPool(group, workers=0) as pool:
        assert pool.match_indices(ct_bytes, tokens) == EXPECTED_MATCH_INDICES


def test_metrics_recorded(fixture_data):
    group, ct_bytes, tokens = fixture_data
    obs = Observability()
    with obs.installed():
        with MatchPool(group, workers=0) as pool:
            pool.match(ct_bytes, tokens)
    metrics = obs.metrics
    assert metrics.counter_total("op.par.match_batch") == 1
    assert metrics.counter_total("op.par.match") == len(tokens)
    assert metrics.histogram("par.match_wall_s") is not None


def _children() -> int:
    return len(multiprocessing.active_children())


def test_workers_fork_only_at_split_at_distinct_tokens(fixture_data, monkeypatch):
    """Below ``SPLIT_AT`` distinct tokens — however many registrations
    repeat them — the pool matches in process and forks nothing; at it,
    the one partition gives way to ``workers`` worker partitions, which
    stay until ``close()``, however few tokens the pool later holds."""
    group, ct_bytes, tokens = fixture_data
    monkeypatch.setitem(pool_mod.SPLIT_AT, "TOY", 5)
    with MatchPool(group, workers=0) as serial:
        expected = serial.match(ct_bytes, tokens)
    before = _children()
    with MatchPool(group, workers=2) as pool:
        assert (pool.lanes(4), pool.lanes(5)) == (1, 2)
        assert pool.match(ct_bytes, tokens[:4] * 3) == expected[:4] * 3  # 12 registrations
        assert len(pool.partitions) == 1 and _children() == before
        assert pool.match(ct_bytes, tokens[:5]) == expected[:5]
        assert len(pool.partitions) == 2 and _children() == before + 2
        assert pool.match(ct_bytes, tokens[:1]) == expected[:1]
        assert pool.lanes(1) == 2 and _children() == before + 2
    assert _children() == before
    with MatchPool(group, workers=1) as pool:  # one worker: never split
        assert pool.lanes(len(tokens)) == 1
        assert pool.match(ct_bytes, tokens) == expected
        assert len(pool.partitions) == 1 and _children() == before


def test_split_at_is_the_committed_break_even():
    """``SPLIT_AT`` is the sweep's measurement (benchmarks/bench_match_pool.py)
    on each parameter set, and ``TOY``'s is above `sim-churn`'s 10 distinct
    tokens; a set the sweep does not time splits at the largest."""
    history = load_history(REPO_ROOT)
    assert pool_mod.SPLIT_AT == {
        param_set: history[f"match_pool.{param_set}.break_even_tokens"].value
        for param_set in ("TOY", "PAPER")
    }
    assert pool_mod.SPLIT_AT["TOY"] > 10
    split_at = max(pool_mod.SPLIT_AT.values())
    pool = MatchPool(PairingGroup("TEST"), workers=2)
    assert (pool.lanes(split_at - 1), pool.lanes(split_at)) == (1, 2)
