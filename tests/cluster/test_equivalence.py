"""Sharded-vs-single equivalence: partitioning the DS/RS tiers must be
invisible to applications.

The substrate-independent observable (same as the live-parity battery)
is the per-subscriber sorted plaintext delivery set.  Every topology —
DS-only sharding, RS-only sharding with replication, both, and a wider
4x2 layout — must deliver exactly what the classic single-node
deployment delivers, in broadcast and delegated-matching modes.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.core.config import P3SConfig, default_schema
from repro.core.system import P3SSystem
from repro.live.scenario import (
    PublicationSpec,
    Scenario,
    SubscriberSpec,
    default_scenario,
    run_on_simulator,
)
from repro.pbe.schema import ENCODINGS, Interest, MetadataSchema

from ..live.conftest import small_config

TOPOLOGIES = [
    pytest.param(2, 1, 1, id="2ds"),
    pytest.param(1, 2, 2, id="2rs-repl2"),
    pytest.param(2, 2, 2, id="2ds-2rs-repl2"),
    pytest.param(4, 2, 2, id="4ds-2rs-repl2"),
]


def _metadata(**overrides):
    base = {"topic": "a", "prio": "lo"}
    base.update(overrides)
    return tuple(sorted(base.items()))


# enough publications that several DS/RS shards own some of the GUIDs
SCENARIO = Scenario(
    subscribers=(
        SubscriberSpec("alice", frozenset({"org"}), (Interest({"topic": "a"}),)),
        SubscriberSpec(
            "bobby", frozenset({"org"}), (Interest({"topic": "b", "prio": "hi"}),)
        ),
        SubscriberSpec("carol", frozenset({"other"}), (Interest({"topic": "a"}),)),
    ),
    publications=tuple(
        PublicationSpec(_metadata(topic="a"), f"story-{i}".encode(), "org")
        for i in range(4)
    )
    + (
        PublicationSpec(_metadata(topic="b", prio="hi"), b"brief-hi", "org"),
        PublicationSpec(_metadata(topic="d"), b"unwanted", "org"),
    ),
)

EXPECTED_ALICE = tuple(sorted(f"story-{i}".encode() for i in range(4)))


@lru_cache(maxsize=None)
def single_node_baseline(delegated: bool):
    config = small_config(
        delegated_matching=delegated, match_workers=1 if delegated else 0
    )
    return run_on_simulator(SCENARIO, config)


class TestShardedEquivalence:
    @pytest.mark.parametrize("ds_shards,rs_shards,replication", TOPOLOGIES)
    def test_broadcast_matches_single_node(self, ds_shards, rs_shards, replication):
        config = small_config(
            ds_shards=ds_shards, rs_shards=rs_shards, rs_replication=replication
        )
        assert run_on_simulator(SCENARIO, config) == single_node_baseline(False)

    @pytest.mark.parametrize("ds_shards,rs_shards,replication", TOPOLOGIES)
    def test_delegated_matching_matches_single_node(
        self, ds_shards, rs_shards, replication
    ):
        config = small_config(
            ds_shards=ds_shards,
            rs_shards=rs_shards,
            rs_replication=replication,
            delegated_matching=True,
            match_workers=1,
        )
        assert run_on_simulator(SCENARIO, config) == single_node_baseline(True)

    def test_default_schema_under_both_encodings(self):
        """The demo episode on ``default_schema()``: one delivery map for
        either encoding, sharded or not, broadcast or delegated."""
        maps = []
        for encoding in ENCODINGS:
            schema = MetadataSchema(default_schema().attributes, encoding)
            for delegated in (False, True):
                for ds_shards, rs_shards, replication in ((1, 1, 1), (2, 2, 2)):
                    config = P3SConfig(
                        schema=schema,
                        ds_shards=ds_shards,
                        rs_shards=rs_shards,
                        rs_replication=replication,
                        delegated_matching=delegated,
                    )
                    maps.append(run_on_simulator(default_scenario(), config))
        assert all(delivered == maps[0] for delivered in maps), maps
        assert any(maps[0].values())

    def test_the_baseline_itself_is_nontrivial(self):
        baseline = single_node_baseline(False)
        assert baseline["alice"] == EXPECTED_ALICE
        assert baseline["bobby"] == (b"brief-hi",)
        assert baseline["carol"] == ()  # matched but CP-ABE denies


class TestShardedPlacement:
    def test_publications_route_by_guid_and_items_replicate(self):
        config = small_config(ds_shards=2, rs_shards=2, rs_replication=2)
        system = P3SSystem(config)
        try:
            alice = system.add_subscriber("alice", {"org"})
            system.subscribe(alice, Interest({"topic": "a"}))
            system.run()
            publisher = system.add_publisher("pub")
            records = [
                publisher.publish(
                    dict(_metadata(topic="a")), f"p{i}".encode(), policy="org"
                )
                for i in range(8)
            ]
            system.run()

            # every item sits on exactly its GUID's ring replicas
            for record in records:
                for name, rs in system.rs_shards.items():
                    expected = name in system.cluster.rs_replicas(record.guid)
                    assert rs.store.holds(record.guid, system.now) == expected

            # each publication was brokered by the shard owning its GUID
            from collections import Counter

            owner_counts = Counter(
                system.cluster.ds_owner(r.guid) for r in records
            )
            status = system.cluster_status()
            assert status["ds_publications"] == {
                name: owner_counts.get(name, 0) for name in system.ds_shards
            }
            assert sum(status["rs_items"].values()) == 2 * len(records)
            assert len(alice.stats.deliveries) == len(records)
        finally:
            system.close()

    def test_subscriptions_and_tokens_reach_every_ds_shard(self):
        config = small_config(ds_shards=3, delegated_matching=True, match_workers=1)
        system = P3SSystem(config)
        try:
            alice = system.add_subscriber("alice", {"org"})
            system.subscribe(alice, Interest({"topic": "a"}))
            system.run()
            for ds in system.ds_shards.values():
                assert ds.registered_subscriber_count == 1
                assert len(ds.registered_tokens) == 1
        finally:
            system.close()
