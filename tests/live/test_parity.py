"""Substrate parity: the live TCP deployment delivers exactly what the
simulator delivers.

GUIDs and ciphertexts are randomized per run, so the substrate-
independent observable is the *plaintext delivery set* per subscriber —
publish → match → retrieve → deliver must produce byte-identical
payloads on both substrates, in broadcast and delegated-matching modes.
"""

from __future__ import annotations

import pytest

from repro.live.scenario import (
    PublicationSpec,
    Scenario,
    SubscriberSpec,
    default_scenario,
    run_on_live,
    run_on_simulator,
)
from repro.core.config import P3SConfig, default_schema
from repro.pbe.schema import ENCODINGS, Interest, MetadataSchema

from .conftest import run_async, small_config

pytestmark = pytest.mark.live


def _metadata(**overrides):
    base = {"topic": "a", "prio": "lo"}
    base.update(overrides)
    return tuple(sorted(base.items()))


SMALL_SCENARIO = Scenario(
    subscribers=(
        SubscriberSpec("alice", frozenset({"org"}), (Interest({"topic": "a"}),)),
        SubscriberSpec(
            "bobby", frozenset({"org"}), (Interest({"topic": "b", "prio": "hi"}),)
        ),
        SubscriberSpec("carol", frozenset({"other"}), (Interest({"topic": "a"}),)),
    ),
    publications=(
        PublicationSpec(_metadata(topic="a"), b"payload-for-topic-a", "org"),
        PublicationSpec(
            _metadata(topic="b", prio="hi"), b"payload-for-b-hi", "org"
        ),
        PublicationSpec(_metadata(topic="d"), b"payload-nobody-wants", "org"),
    ),
)


class TestDeliveryParity:
    def test_broadcast_delivery_sets_identical(self):
        config = small_config()
        simulated = run_on_simulator(SMALL_SCENARIO, config)
        live = run_async(run_on_live(SMALL_SCENARIO, config, expected=simulated))
        assert simulated == live
        # the scenario is non-trivial on both substrates
        assert live["alice"] == (b"payload-for-topic-a",)
        assert live["bobby"] == (b"payload-for-b-hi",)
        assert live["carol"] == ()  # matched, but CP-ABE policy denies

    def test_delegated_matching_delivery_sets_identical(self):
        config = small_config(delegated_matching=True, match_workers=1)
        simulated = run_on_simulator(SMALL_SCENARIO, config)
        live = run_async(run_on_live(SMALL_SCENARIO, config, expected=simulated))
        assert simulated == live
        assert live["alice"] == (b"payload-for-topic-a",)

    def test_default_demo_scenario_parity(self):
        """On ``default_schema()``, under both encodings."""
        scenario = default_scenario()
        for encoding in ENCODINGS:
            config = P3SConfig(schema=MetadataSchema(default_schema().attributes, encoding))
            simulated = run_on_simulator(scenario, config)
            live = run_async(run_on_live(scenario, config, expected=simulated))
            assert simulated == live, encoding
            assert any(payloads for payloads in live.values())


class TestLiveObservables:
    def test_subscriber_and_service_counters(self):
        import asyncio

        from repro.live.deployment import LiveDeployment

        async def scenario():
            deployment = LiveDeployment(small_config())
            await deployment.start()
            try:
                alice = await deployment.add_subscriber("alice", {"org"})
                await alice.subscribe(Interest({"topic": "a"}))
                carol = await deployment.add_subscriber("carol", {"other"})
                await carol.subscribe(Interest({"topic": "a"}))
                publisher = await deployment.add_publisher("pub")
                await publisher.publish(
                    dict(_metadata(topic="a")), b"observable", policy="org"
                )
                await alice.wait_for_deliveries(1, timeout_s=60.0)
                # carol matches but is denied; wait for her attempt to finish
                for _ in range(200):
                    if carol.stats.access_denied:
                        break
                    await asyncio.sleep(0.05)
                # subscriber-side stats mirror the simulator's semantics
                assert alice.stats.metadata_seen == 1
                assert alice.stats.matches == 1
                assert len(alice.stats.deliveries) == 1
                assert carol.stats.access_denied == 1
                assert carol.stats.deliveries == []
                # service-side HBC observables populated over the real wire
                assert deployment.ds.publications_by_publisher["pub"] == 1
                assert deployment.ds.delivered_count >= 2
                assert deployment.rs.store.stored_count == 1
                assert deployment.rs.store.item_count == 1
                assert deployment.pbe_ts.issuer.tokens_issued == 2
                # the anonymizer hid subscriber identities from RS/PBE-TS
                assert set(deployment.pbe_ts.observed_sources) == {"anon"}
                assert set(deployment.rs.observed_sources) == {"anon"}
                assert ("alice", "pbe-ts") in deployment.anonymizer.observed_links
            finally:
                await deployment.close()

        run_async(scenario())

    def test_expired_item_fails_fetch_after_gc(self):
        import asyncio

        from repro.live.deployment import LiveDeployment

        async def scenario():
            config = small_config(t_g=0.0, rs_gc_interval_s=0.05)
            deployment = LiveDeployment(config)
            await deployment.start()
            try:
                alice = await deployment.add_subscriber("alice", {"org"})
                alice.retrieval_retries = 1
                await alice.subscribe(Interest({"topic": "a"}))
                publisher = await deployment.add_publisher("pub")
                # TTL 0 + T_G 0: the item is dead on arrival at the RS
                await publisher.publish(
                    dict(_metadata(topic="a")), b"ephemeral", policy="org", ttl_s=0.0
                )
                for _ in range(400):
                    if alice.stats.failed_fetches:
                        break
                    await asyncio.sleep(0.05)
                assert alice.stats.failed_fetches == 1
                assert alice.stats.deliveries == []
            finally:
                await deployment.close()

        run_async(scenario())
