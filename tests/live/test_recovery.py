"""Live-service restart recovery: readiness must not depend on traffic.

A restarted DS that recovered delegated-matching tokens from its durable
store reports ``match_pool_warm`` in its health checks.  The pool must
therefore be forked during recovery, not lazily on the first
publication: a readiness-gated deployment routes no traffic to a
not-ready DS, so a lazily-warmed pool would never warm and the service
would wedge as not-ready forever.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterMap
from repro.core.system import P3SSystem
from repro.errors import StorageError
from repro.live.deployment import LiveDeployment
from repro.live.rpc import AddressBook, LiveRpcEndpoint
from repro.live.services import LiveDisseminationServer
from repro.pbe.hve import HVE
from repro.pbe.schema import Interest
from repro.pbe.serialize import serialize_hve_token
from repro.store import WalEngine
from repro.store.codec import NS_TOKENS, encode_token, token_key

from .conftest import run_async, small_config

pytestmark = pytest.mark.live


class TestRecoveredRegistrationsWarmPool:
    def test_restarted_ds_is_ready_before_any_publication(self, tmp_path, group):
        path = str(tmp_path / "ds")
        # a previous DS process registered one delegated-matching token
        hve = HVE(group)
        _, master = hve.setup(4)
        token = serialize_hve_token(group, hve.gen_token(master, [1, None, None, 0]))
        with WalEngine(path) as engine:
            engine.put(NS_TOKENS, token_key("alice", token), encode_token("alice", token))

        ds = LiveDisseminationServer(
            LiveRpcEndpoint("ds", AddressBook()),
            ClusterMap(["ds"], ["rs"]),
            group=group,
            vector_length=4,
            match_workers=1,
            store=WalEngine(path),
        )
        try:
            assert ds.recovered_registrations == 1
            # the pool was warmed during recovery, so readiness holds
            # with zero publications processed
            assert ds._match_pool is not None
            assert ds.health_checks()["match_pool_warm"]
        finally:
            run_async(ds.close())

    def test_recovery_without_tokens_does_not_fork_a_pool(self, tmp_path, group):
        path = str(tmp_path / "ds")
        WalEngine(path).close()  # durable but empty store
        ds = LiveDisseminationServer(
            LiveRpcEndpoint("ds", AddressBook()),
            ClusterMap(["ds"], ["rs"]),
            group=group,
            match_workers=1,
            store=WalEngine(path),
        )
        try:
            assert ds.recovered_registrations == 0
            assert ds._match_pool is None  # no tokens -> nothing to warm
            assert ds.health_checks()["match_pool_warm"]
        finally:
            run_async(ds.close())


    def test_a_ds_without_a_matcher_stays_ready_over_stored_tokens(self, tmp_path, group):
        """Delegated matching off: the stored token is refused, not
        recovered into a registry that no pool would ever serve."""
        path = str(tmp_path / "ds")
        hve = HVE(group)
        token = serialize_hve_token(group, hve.gen_token(hve.setup(4)[1], [1, None, None, 0]))
        with WalEngine(path) as engine:
            engine.put(NS_TOKENS, token_key("alice", token), encode_token("alice", token))
        ds = LiveDisseminationServer(
            LiveRpcEndpoint("ds", AddressBook()), ClusterMap(["ds"], ["rs"]), store=WalEngine(path)
        )
        try:
            assert ds.recovered_registrations == 0 and list(ds.registered_tokens) == []
            assert ds.health_checks()["match_pool_warm"]
        finally:
            run_async(ds.close())


class TestDeploymentHonoursTheStoreConfig:
    """``P3SConfig``'s store fields reach the live RS/DS engines exactly
    as they reach the simulator's (both realise one DeploymentPlan)."""

    def test_wal_backend_persists_and_recovers_across_deployments(self, tmp_path):
        config = small_config(
            store_backend="wal",
            data_dir=str(tmp_path),
            store_key=b"k" * 32,
            store_fsync=False,
        )

        async def first_boot():
            deployment = LiveDeployment(config)
            await deployment.start()
            try:
                assert deployment.rs.store.engine.durable and deployment.ds.store.durable
                alice = await deployment.add_subscriber("alice", {"org"})
                await alice.subscribe(Interest({"topic": "a"}))
                publisher = await deployment.add_publisher("pub")
                await publisher.publish({"topic": "a", "prio": "hi"}, b"kept", policy="org")
                await alice.wait_for_deliveries(1)
            finally:
                await deployment.close()

        async def second_boot():
            deployment = LiveDeployment(config)
            await deployment.start()
            try:
                return deployment.rs.store.recovered_count, deployment.ds.recovered_registrations
            finally:
                await deployment.close()

        run_async(first_boot())
        assert (tmp_path / "rs").exists() and (tmp_path / "ds").exists()
        recovered_items, recovered_registrations = run_async(second_boot())
        assert recovered_items >= 1  # the published ciphertext
        assert recovered_registrations >= 1  # alice's metadata-topic subscription

    def test_durable_backend_without_data_dir_is_refused_like_the_simulator(self):
        config = small_config(store_backend="wal")
        with pytest.raises(StorageError):
            P3SSystem(config)
        with pytest.raises(StorageError):
            run_async(LiveDeployment(config).start())
