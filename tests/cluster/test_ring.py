"""Properties of the consistent-hash ring (repro.cluster.ring).

Three guarantees the routing layer leans on, each property-tested:

* **determinism** — placement is a pure function of (node set, vnodes,
  key), pinned to SHA-256 so separate OS processes agree (PYTHONHASHSEED
  never leaks in);
* **balance** — at the default 64 vnodes no node's share of the
  keyspace (analytic arcs *and* empirical key counts) strays beyond a
  small constant factor of the mean;
* **minimality** — adding one node to an *n*-node ring moves ~1/(n+1)
  of the keys and every move lands on the new node; nothing shuffles
  between survivors.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.ring import DEFAULT_VNODES, HashRing, hash_key

KEYS = [f"key{i}".encode() for i in range(2000)]

node_counts = st.integers(min_value=2, max_value=8)
node_names = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12),
    min_size=2,
    max_size=8,
    unique=True,
)


class TestDeterminism:
    def test_hash_key_is_pinned_sha256(self):
        # frozen constants: placement must agree across processes and
        # releases — a change here silently re-homes every stored item
        assert hash_key(b"guid-000") == 9465174545327893952
        assert hash_key("alpha") == 14899429819197119431
        assert hash_key("alpha") == hash_key(b"alpha")  # str/bytes agree

    def test_same_nodes_same_placement(self):
        one = HashRing(["rs0", "rs1", "rs2"])
        two = HashRing(["rs0", "rs1", "rs2"])
        assert [one.owner(k) for k in KEYS] == [two.owner(k) for k in KEYS]
        assert one == two

    def test_pinned_example_placement(self):
        ring = HashRing(["rs0", "rs1", "rs2"], vnodes=64)
        assert ring.owner(b"guid-000") == "rs0"
        assert ring.successors(b"guid-000", 2) == ("rs0", "rs1")

    def test_node_order_does_not_matter_for_placement(self):
        # the ring is defined by vnode points, not list order
        a = HashRing(["x", "y", "z"])
        b = HashRing(["z", "x", "y"])
        assert [a.owner(k) for k in KEYS] == [b.owner(k) for k in KEYS]

    def test_rejects_degenerate_rings(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["a"], vnodes=0)
        with pytest.raises(ValueError):
            HashRing(["a"]).successors(b"k", 0)


class TestSuccessors:
    def test_successors_are_distinct_and_start_with_owner(self):
        ring = HashRing([f"rs{i}" for i in range(5)])
        for key in KEYS[:200]:
            replicas = ring.successors(key, 3)
            assert len(replicas) == len(set(replicas)) == 3
            assert replicas[0] == ring.owner(key)

    def test_successors_cap_at_node_count(self):
        ring = HashRing(["a", "b"])
        assert set(ring.successors(b"k", 10)) == {"a", "b"}

    @given(n=node_counts)
    @settings(max_examples=20, deadline=None)
    def test_full_replication_covers_every_node(self, n):
        ring = HashRing([f"s{i}" for i in range(n)])
        assert set(ring.successors(b"any-key", n)) == set(ring.nodes)


class TestBalance:
    @given(names=node_names)
    @settings(max_examples=30, deadline=None)
    def test_keyspace_share_within_constant_factor(self, names):
        ring = HashRing(names, vnodes=DEFAULT_VNODES)
        shares = ring.keyspace_share()
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        mean = 1.0 / len(names)
        assert max(shares.values()) <= 2.5 * mean
        assert min(shares.values()) >= mean / 4.0

    @given(n=node_counts)
    @settings(max_examples=10, deadline=None)
    def test_empirical_key_counts_within_constant_factor(self, n):
        ring = HashRing([f"s{i}" for i in range(n)], vnodes=DEFAULT_VNODES)
        counts = ring.counts(KEYS)
        mean = len(KEYS) / n
        assert sum(counts.values()) == len(KEYS)
        assert max(counts.values()) <= 2.5 * mean
        assert min(counts.values()) >= mean / 4.0

    def test_few_vnodes_balance_worse_than_default(self):
        # the reason DEFAULT_VNODES exists: 1 vnode per node is legal but lumpy
        lumpy = HashRing([f"s{i}" for i in range(4)], vnodes=1)
        smooth = HashRing([f"s{i}" for i in range(4)], vnodes=DEFAULT_VNODES)
        spread = lambda ring: max(ring.keyspace_share().values()) - min(
            ring.keyspace_share().values()
        )
        assert spread(smooth) < spread(lumpy)


def _moves(old: HashRing, new: HashRing, replication: int = 1) -> dict:
    """``{key: (replicas before, replicas after)}`` for every key whose
    replica set differs between the two rings."""
    placed = ((k, old.successors(k, replication), new.successors(k, replication)) for k in KEYS)
    return {key: (before, after) for key, before, after in placed if before != after}


class TestMinimalMovement:
    """What makes rebuilding the DS ring on a membership change cheap: only
    the keys of the shard that left (or came back) re-home."""

    @given(n=node_counts)
    @settings(max_examples=10, deadline=None)
    def test_adding_one_node_moves_about_one_over_n_plus_one(self, n):
        old = HashRing([f"s{i}" for i in range(n)])
        new = HashRing([f"s{i}" for i in range(n + 1)])
        moved = len(_moves(old, new)) / len(KEYS)
        # expected 1/(n+1); allow 2x for 64-vnode granularity
        assert moved <= 2.0 / (n + 1) + 0.03
        assert moved > 0.0  # the joiner does take real load

    @given(n=node_counts)
    @settings(max_examples=10, deadline=None)
    def test_every_move_lands_on_the_new_node(self, n):
        nodes = [f"s{i}" for i in range(n)]
        for _key, (before, after) in _moves(HashRing(nodes), HashRing([*nodes, "joiner"])).items():
            assert after[0] == "joiner"  # primary only ever moves TO the joiner
            assert before[0] != "joiner"

    def test_replicated_moves_are_bounded_too(self):
        old = HashRing([f"s{i}" for i in range(4)])
        new = HashRing([f"s{i}" for i in range(5)])
        moves = _moves(old, new, replication=2)
        # a key's 2-replica set changes only when the joiner enters it
        for _key, (before, after) in moves.items():
            assert "s4" in after and "s4" not in before
        assert len(moves) / len(KEYS) <= 2 * (2.0 / 5) + 0.05
