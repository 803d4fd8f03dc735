"""MatchPool's token partitions: reconciliation, equivalence, recovery.

* a Hypothesis property over register/unregister sequences — several
  subscribers may hold one token's bytes — interleaved with publications:
  one in-process partition, two worker partitions and a per-token
  ``HVE.query`` reference agree, and every distinct token is held by
  exactly one partition;
* a killed worker is an empty partition that the next match refills;
* a hostile ciphertext raises and leaves the partitions as they were;
* no cliff: with 200 tokens, a warm publication builds no Miller lines.

The module's few tokens are far below ``SPLIT_AT``, so the ``world``
fixture lowers it: a two-worker pool here splits at any count.
"""

from __future__ import annotations


import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto import randomness
from repro.crypto.group import PairingGroup
from repro.errors import ReproError
from repro.obs import Observability
from repro.par import MatchPool
from repro.par import pool as pool_mod
from repro.pbe.hve import HVE
from repro.pbe.serialize import (
    deserialize_hve_ciphertext,
    deserialize_hve_token,
    serialize_hve_ciphertext,
    serialize_hve_token,
)

ALPHABET = (3, 3, 2)
INTERESTS = [
    [0, None, None],  # one position: deterministic bytes
    [1, None, None],
    [None, 2, None],
    [None, None, 1],
    [0, 2, None],  # several positions: fresh bytes every time
    [1, None, 0],
    [2, 1, 1],
]
VECTORS = [[0, 2, 1], [1, 0, 0], [2, 1, 1]]
SUBSCRIBERS = 5


@pytest.fixture(scope="module")
def world():
    group = PairingGroup("TOY")
    hve = HVE(group)
    with randomness.seeded(0x9A27):
        public, master = hve.setup(ALPHABET)
        tokens = [serialize_hve_token(group, hve.gen_token(master, y)) for y in INTERESTS]
        ciphertexts = [
            serialize_hve_ciphertext(group, hve.encrypt(public, x, b"guid-%d" % i))
            for i, x in enumerate(VECTORS)
        ]
    # the reference: every (ciphertext, token) pair through a plain HVE.query
    reference = HVE(group)
    expected = {
        (c, t): reference.query(
            deserialize_hve_token(group, t), deserialize_hve_ciphertext(group, c, len(ALPHABET))
        )
        for c in ciphertexts
        for t in tokens
    }
    assert any(expected.values()) and not all(expected.values())
    serial, parallel = MatchPool(group, workers=0), MatchPool(group, workers=2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(pool_mod.SPLIT_AT, "TOY", 1)
        yield group, tokens, ciphertexts, expected, serial.start(), parallel.start()
    serial.close()
    parallel.close()


def _held_exactly(pool: MatchPool, wanted: list[bytes]) -> None:
    assert set(pool._home) == set(wanted)
    assert all(0 <= home < len(pool.partitions) for home in pool._home.values())


OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("reg"), st.integers(0, SUBSCRIBERS - 1), st.integers(0, 6)),
        st.tuples(st.just("unreg"), st.integers(0, SUBSCRIBERS - 1), st.integers(0, 6)),
        st.tuples(st.just("pub"), st.integers(0, 2), st.just(0)),
    ),
    max_size=14,
)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(operations=OPERATIONS)
def test_partitions_agree_with_the_per_token_reference(world, operations):
    _, tokens, ciphertexts, expected, serial, parallel = world
    registry: list[tuple[int, bytes]] = []  # (subscriber, token bytes), as the DS keeps it
    for kind, a, b in operations + [("pub", 0, 0)]:
        if kind == "reg" and (a, tokens[b]) not in registry:
            registry.append((a, tokens[b]))
        elif kind == "unreg" and (a, tokens[b]) in registry:
            registry.remove((a, tokens[b]))
        elif kind == "pub":
            wanted = [token for _, token in registry]
            want = [expected[ciphertexts[a], token] for token in wanted]
            assert serial.match(ciphertexts[a], wanted) == want
            assert parallel.match(ciphertexts[a], wanted) == want
            if wanted:
                _held_exactly(serial, wanted)
                _held_exactly(parallel, wanted)
                assert set(serial.partitions[0].tokens) == set(wanted)


def test_a_killed_worker_gives_the_same_results_next_match(world):
    group, tokens, ciphertexts, expected, *_ = world
    want = [expected[ciphertexts[0], token] for token in tokens]
    with MatchPool(group, workers=2) as pool:
        assert pool.match(ciphertexts[0], tokens) == want
        assert len(pool.partitions) == 2
        victim = pool.partitions[0]
        victim.process.kill()
        victim.process.join()
        assert pool.match(ciphertexts[0], tokens) == want
        assert pool.partitions[0] is not victim and pool.partitions[0].alive()
        _held_exactly(pool, tokens)


@pytest.mark.parametrize("workers", [0, 2])
def test_a_hostile_ciphertext_raises_and_changes_no_partition(world, workers):
    group, tokens, ciphertexts, expected, *_ = world
    with MatchPool(group, workers=workers) as pool:
        pool.match(ciphertexts[0], tokens[:3])
        with pytest.raises(ReproError):
            pool.match(b"\x00not a ciphertext", tokens)
        _held_exactly(pool, tokens[:3])
        want = [expected[ciphertexts[1], token] for token in tokens]
        assert pool.match(ciphertexts[1], tokens) == want


@randomness.seeded(0xC11F)
def test_no_cliff_at_200_tokens():
    """The DS holds what its registry holds: with 200 tokens a warm
    publication builds no Miller lines, where a line cache smaller than
    the registry would rebuild all 800 on every publication."""
    group = PairingGroup("TOY")
    hve = HVE(group)
    public, master = hve.setup((4, 4, 4))
    tokens = [
        serialize_hve_token(group, hve.gen_token(master, [i % 4, i // 4 % 4, None]))
        for i in range(200)
    ]
    assert len(set(tokens)) == 200
    ciphertexts = [
        serialize_hve_ciphertext(group, hve.encrypt(public, [i, i, i], b"cliff-%d" % i))
        for i in range(3)
    ]
    precomputes = []
    with MatchPool(group, workers=0) as pool:
        for ciphertext in ciphertexts:
            obs = Observability()
            with obs.installed():
                pool.match(ciphertext, tokens)
            precomputes.append(obs.metrics.counter_total("op.pairing.precompute"))
    assert precomputes == [800, 0, 0]
