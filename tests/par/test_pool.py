"""MatchPool: serial/parallel equivalence, ordering, lifecycle, metrics.

The parallel partitions are real worker processes; on a single-core
machine they still exercise reconciliation, reassembly and determinism.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.group import PairingGroup
from repro.obs import Observability
from repro.par import MatchPool
from repro.pbe.hve import HVE
from repro.pbe.serialize import serialize_hve_ciphertext, serialize_hve_token


@pytest.fixture(scope="module")
def fixture_data():
    group = PairingGroup("TOY", rng=random.Random(0x9001))
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


def test_parallel_identical_and_identically_ordered(fixture_data):
    group, ct_bytes, tokens = fixture_data
    with MatchPool(group, workers=0) as serial:
        expected = serial.match(ct_bytes, tokens)
    # reassembly is by token bytes, whatever partition holds a token
    for workers in (2, 3):
        with MatchPool(group, workers=workers) as pool:
            assert len(pool.partitions) == workers
            assert pool.match(ct_bytes, tokens) == expected


def test_partitions_share_tokens_evenly(fixture_data):
    # 7 distinct tokens on 4 partitions: 2+2+2+1, each token in one of them
    group, ct_bytes, tokens = fixture_data
    with MatchPool(group, workers=4) as pool:
        results = pool.match(ct_bytes, tokens)
        loads = sorted(list(pool._home.values()).count(i) for i in range(4))
    assert loads == [1, 2, 2, 2]
    assert [i for i, r in enumerate(results) if r is not None] == EXPECTED_MATCH_INDICES


def test_pool_reuse_across_publications(fixture_data):
    group, ct_bytes, tokens = fixture_data
    with MatchPool(group, workers=2) as pool:
        first = pool.match(ct_bytes, tokens)
        second = pool.match(ct_bytes, tokens)  # warm worker caches
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
