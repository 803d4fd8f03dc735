"""Live sharded parity: the 2x2 replicated TCP deployment delivers
exactly what the simulator's sharded deployment delivers — and the
sharded simulator itself matches single-node, so live-sharded ==
single-node by transitivity (tests/cluster/test_equivalence.py).
"""

from __future__ import annotations

import pytest

from repro.live.deployment import LiveDeployment
from repro.live.scenario import (
    PublicationSpec,
    Scenario,
    SubscriberSpec,
    run_on_live,
    run_on_simulator,
)
from repro.pbe.schema import Interest

from ..live.conftest import run_async, small_config

pytestmark = pytest.mark.live


def _metadata(**overrides):
    base = {"topic": "a", "prio": "lo"}
    base.update(overrides)
    return tuple(sorted(base.items()))


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
        for i in range(3)
    )
    + (PublicationSpec(_metadata(topic="b", prio="hi"), b"brief-hi", "org"),),
)

SHARDED = dict(ds_shards=2, rs_shards=2, rs_replication=2)


class TestLiveShardedParity:
    def test_broadcast_delivery_sets_identical(self):
        config = small_config(**SHARDED)
        simulated = run_on_simulator(SCENARIO, config)
        live = run_async(run_on_live(SCENARIO, config, expected=simulated))
        assert simulated == live
        assert live["alice"] == tuple(
            sorted(f"story-{i}".encode() for i in range(3))
        )
        assert live["carol"] == ()

    def test_delegated_matching_delivery_sets_identical(self):
        config = small_config(**SHARDED, delegated_matching=True, match_workers=1)
        simulated = run_on_simulator(SCENARIO, config)
        live = run_async(run_on_live(SCENARIO, config, expected=simulated))
        assert simulated == live
        assert live["bobby"] == (b"brief-hi",)


class TestLiveClusterTelemetry:
    def test_shards_report_cluster_membership_and_health(self):
        async def scenario():
            deployment = LiveDeployment(small_config(**SHARDED))
            await deployment.start()
            try:
                assert deployment.service_names == (
                    "ds0", "ds1", "rs0", "rs1", "pbe-ts", "anon",
                )
                for ds in deployment.ds_shards.values():
                    metrics = {m["name"]: m for m in ds.extra_metrics()}
                    assert metrics["cluster.ds_shards"]["value"] == 2
                    assert metrics["cluster.rs_shards"]["value"] == 2
                    assert metrics["cluster.rs_replication"]["value"] == 2
            finally:
                await deployment.close()

        run_async(scenario())
