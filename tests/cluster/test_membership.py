"""Membership + failure detection (repro.cluster.membership) — unit
semantics of the table, then the simulator integration: a crashed DS
shard is swept out of the routing ring within the failure timeout and
routes again once it heartbeats back.
"""

from __future__ import annotations

from repro.cluster.membership import MembershipTable
from repro.core.config import P3SConfig
from repro.core.system import FAILURE_TIMEOUT_S, HEARTBEAT_INTERVAL_S, P3SSystem

from ..live.conftest import small_config


class TestMembershipTable:
    def test_join_heartbeat_sweep_cycle(self):
        table = MembershipTable(failure_timeout_s=3.0)
        table.join("ds0", "ds", now=0.0)
        table.join("rs0", "rs", now=0.0)
        assert table.is_alive("ds0") and table.is_alive("rs0")

        table.heartbeat("ds0", now=2.0)
        assert table.sweep(now=4.0) == ["rs0"]  # silent past the timeout
        assert table.alive() == ["ds0"]
        assert not table.is_alive("rs0") and table.alive("rs") == []
        assert table.sweep(now=5.0) == []  # a death is reported once

    def test_heartbeat_revives_a_dead_member(self):
        table = MembershipTable(failure_timeout_s=1.0)
        table.join("rs1", "rs", now=0.0)
        table.sweep(now=5.0)
        assert not table.is_alive("rs1")
        table.heartbeat("rs1", now=6.0)
        assert table.is_alive("rs1")
        member = table.members["rs1"]
        assert member.failures == 1 and member.recoveries == 1

    def test_one_delayed_beat_does_not_flap(self):
        table = MembershipTable(failure_timeout_s=3.0)
        table.join("ds0", "ds", now=0.0)
        table.heartbeat("ds0", now=1.0)
        assert table.sweep(now=3.5) == []  # 2.5s silent < timeout

    def test_rejoin_is_a_heartbeat_not_a_reset(self):
        table = MembershipTable()
        member = table.join("ds0", "ds", now=0.0)
        again = table.join("ds0", "ds", now=2.0)
        assert again is member
        assert member.joined_at == 0.0 and member.last_heartbeat == 2.0

    def test_heartbeat_from_stranger_raises(self):
        import pytest

        with pytest.raises(KeyError):
            MembershipTable().heartbeat("ghost", now=0.0)

    def test_snapshot_shape(self):
        table = MembershipTable()
        table.join("rs0", "rs", now=0.0)
        table.join("ds0", "ds", now=0.0)
        snap = table.snapshot(now=1.5)
        assert [row["name"] for row in snap] == ["ds0", "rs0"]  # (role, name) order
        assert snap[0] == {
            "name": "ds0",
            "role": "ds",
            "alive": True,
            "age_s": 1.5,
            "silence_s": 1.5,
            "failures": 0,
            "recoveries": 0,
        }


class TestSimulatedFailureDetection:
    def test_default_deployment_is_a_one_node_map_with_no_heartbeat(self):
        system = P3SSystem(P3SConfig())
        try:
            cluster = system.ara.directory.cluster
            assert cluster is system.cluster
            assert (cluster.ds_names, cluster.rs_names) == (["ds"], ["rs"])
            assert cluster.rs_public_keys == {"rs": system.rs.pke.public}
            assert not system.plan.sharded
            system.run(until=3 * HEARTBEAT_INTERVAL_S)
            # nothing beat for either node: each has been silent since it joined
            snapshot = system.membership.snapshot(system.now)
            assert {row["name"]: row["silence_s"] for row in snapshot} == {"ds": 3.0, "rs": 3.0}
        finally:
            system.close()

    def test_crashed_ds_shard_leaves_and_rejoins_the_routing_ring(self):
        system = P3SSystem(small_config(ds_shards=2, rs_shards=2, rs_replication=2))
        try:
            assert sorted(system.cluster.ds_names) == ["ds0", "ds1"]

            system.ds_shards["ds1"].crash()
            system.run(until=system.now + FAILURE_TIMEOUT_S + 2.5)
            assert not system.membership.is_alive("ds1")
            assert system.cluster.ds_names == ["ds0"]  # new publications reroute

            system.ds_shards["ds1"].restart()
            system.run(until=system.now + 2.5)
            assert system.membership.is_alive("ds1")
            assert sorted(system.cluster.ds_names) == ["ds0", "ds1"]
            member = system.membership.members["ds1"]
            assert member.failures == 1 and member.recoveries == 1
        finally:
            system.close()

    def test_rs_ring_stays_static_through_an_rs_crash(self):
        # replication + retrieval failover cover a dead replica; the RS
        # ring must NOT churn (that would re-home items mid-failure)
        system = P3SSystem(small_config(ds_shards=2, rs_shards=2, rs_replication=2))
        try:
            system.rs_shards["rs1"].crash()
            system.run(until=system.now + FAILURE_TIMEOUT_S + 2.5)
            assert not system.membership.is_alive("rs1")  # detected...
            assert sorted(system.cluster.rs_names) == ["rs0", "rs1"]  # ...not evicted
        finally:
            system.close()

    def test_cluster_status_reports_membership_and_topology(self):
        system = P3SSystem(small_config(ds_shards=2, rs_shards=2, rs_replication=2))
        try:
            system.run(until=system.now + 2.0)
            status = system.cluster_status()
            assert status["sharded"] is True
            assert status["ds_shards"] == ["ds0", "ds1"]
            assert status["rs_shards"] == ["rs0", "rs1"]
            assert {row["name"] for row in status["membership"]} == {
                "ds0", "ds1", "rs0", "rs1",
            }
            assert all(row["alive"] for row in status["membership"])
            shares = status["cluster"]["rs_keyspace_share"]
            assert abs(sum(shares.values()) - 1.0) < 0.01
        finally:
            system.close()

    def test_single_node_system_has_no_cluster_but_still_reports(self):
        system = P3SSystem(small_config())
        try:
            status = system.cluster_status()
            assert status["sharded"] is False
            assert status["ds_shards"] == ["ds"] and status["rs_shards"] == ["rs"]
            assert "cluster" not in status
        finally:
            system.close()
