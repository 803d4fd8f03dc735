"""Live parity under faults: the demo scenario through a fault proxy.

The PR 3 parity guarantee — the TCP deployment delivers exactly what
the simulator delivers — re-proven with a :class:`FaultProxy` in front
of the anonymizer tearing connections and delaying frames, and a
dispatch shim duplicating DELIVER pushes at every subscriber.  Three
fixed seeds; each run must end with simulator-equal delivery sets and a
reassemblable span trace despite the reconnects and retries underneath.

The publish leg is faulted too: live clients run the same
``JmsConnection`` as the simulator's, so ``reliable_publish=True`` means
PUBACK + retransmit on TCP as well — duplicated PUBLISH frames are
deduplicated by the broker, a suppressed one is retransmitted.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.live.deployment import LiveDeployment
from repro.live.scenario import default_scenario, play_on_live, run_on_simulator
from repro.mq import messages as frames
from repro.obs import Observability
from repro.obs.ring import DEFAULT_FLIGHT_RECORDER_CAPACITY

from ..live.conftest import run_async, scrape
from .proxy import FaultProxy, dispatch_fanout, duplicate_dispatch, interpose

pytestmark = pytest.mark.live

SEEDS = (3, 5, 9)


async def _run_faulted(scenario, config, expected, seed):
    """The live scenario with anon proxied, armed after the setup phase."""
    deployment = LiveDeployment(config)
    await deployment.start()
    proxies: dict[str, FaultProxy] = {}
    try:
        # interpose on the anonymizer only: it carries exactly the
        # retried retrieval path, so every injected tear is survivable
        proxies = await interpose(
            deployment,
            ["anon"],
            seed=seed,
        )
        for spec in scenario.subscribers:
            subscriber = await deployment.add_subscriber(spec.name, set(spec.attributes))
            subscriber.retry_delay_s = 0.1
            # a torn connection must surface as a retryable timeout well
            # inside the test budget, not the 15s production default
            subscriber.connection.endpoint.call_timeout_s = 2.0
            duplicate_dispatch(subscriber.connection.endpoint, frames.DELIVER)
            for interest in spec.interests:
                await subscriber.subscribe(interest)
        for proxy in proxies.values():
            proxy.arm()
        publisher = await deployment.add_publisher(scenario.publisher_name)
        for publication in scenario.publications:
            await publisher.publish(
                publication.metadata_dict,
                publication.payload,
                policy=publication.policy,
                ttl_s=publication.ttl_s,
            )
        await asyncio.gather(
            *(
                deployment.subscribers[name].wait_for_deliveries(len(payloads), 60.0)
                for name, payloads in expected.items()
                if payloads
            )
        )
        await asyncio.sleep(0.3)  # let acks, spans, and counters settle
        for proxy in proxies.values():
            proxy.disarm()
        delivered = {
            name: tuple(sorted(d.payload for d in subscriber.stats.deliveries))
            for name, subscriber in deployment.subscribers.items()
        }
        stats = {
            name: subscriber.stats
            for name, subscriber in deployment.subscribers.items()
        }
        aggregator = await scrape(deployment)
        proxy_counters = {
            name: {"tears": p.tears, "delays": p.delays, "connections": p.connections}
            for name, p in proxies.items()
        }
        return delivered, stats, aggregator, proxy_counters
    finally:
        for proxy in proxies.values():
            await proxy.close()
        await deployment.close()


class TestLiveParityUnderFaults:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_delivery_sets_match_simulator(self, seed):
        scenario = default_scenario()
        obs = Observability(span_capacity=DEFAULT_FLIGHT_RECORDER_CAPACITY)
        try:
            from repro.core.config import P3SConfig

            config = P3SConfig(obs=obs)
            expected = run_on_simulator(scenario, config)
            delivered, stats, aggregator, proxy_counters = run_async(
                _run_faulted(scenario, config, expected, seed)
            )
        finally:
            obs.uninstall()

        # the headline: sim-vs-TCP delivery equality despite the faults
        assert delivered == expected

        # the proxy actually interfered with steady-state traffic
        counters = proxy_counters["anon"]
        assert counters["connections"] > 0
        assert counters["tears"] + counters["delays"] > 0

        # the DELIVER duplication shim fired and was absorbed by dedup:
        # nobody delivered more than the oracle, and at least one
        # duplicate notification was suppressed across the fleet
        assert sum(s.duplicates_suppressed for s in stats.values()) > 0

        # span-trace reassembly survives the chaos: every service
        # scraped, and the publish->deliver causal chain is present
        assert aggregator.all_ready
        span_names = {span["name"] for span in aggregator.spans()}
        assert "subscriber.retrieve" in span_names
        latency = aggregator.latency_summary()
        assert latency["count"] >= sum(1 for p in expected.values() for _ in p)


class TestLiveReliablePublish:
    def test_duplicated_publish_frames_are_deduplicated_by_the_broker(self):
        from repro.core.config import P3SConfig

        scenario = default_scenario()
        expected = run_on_simulator(scenario, P3SConfig())

        async def run():
            deployment = LiveDeployment(P3SConfig(reliable_publish=True))
            await deployment.start()
            try:
                duplicate_dispatch(deployment.ds.endpoint, frames.PUBLISH)
                delivered = await play_on_live(deployment, scenario, expected)
                publisher = deployment.publishers[scenario.publisher_name]
                return delivered, deployment.ds.duplicate_publishes, publisher.connection
            finally:
                await deployment.close()

        delivered, duplicate_publishes, connection = run_async(run())
        assert delivered == expected
        assert duplicate_publishes > 0  # the shim fired; the dedup window absorbed it
        assert connection.publish_failures == 0

    def test_a_suppressed_publish_frame_is_retransmitted_and_delivered_once(self, monkeypatch):
        from repro.core.config import P3SConfig
        from repro.mq import client as mq_client
        from repro.pbe.schema import Interest

        monkeypatch.setattr(mq_client, "PUBACK_TIMEOUT_S", 0.2)  # keep the test short

        async def run():
            deployment = LiveDeployment(P3SConfig(reliable_publish=True))
            await deployment.start()
            try:
                alice = await deployment.add_subscriber("alice", {"org:acme"})
                await alice.subscribe(Interest({"attr00": "v01"}))
                publisher = await deployment.add_publisher("pub")
                lost = []

                def lose_the_first_publish(message) -> int:
                    if message.msg_type == frames.PUBLISH and not lost:
                        lost.append(message)
                        return 0  # never dispatched: no PUBACK, no fan-out
                    return 1

                dispatch_fanout(deployment.ds.endpoint, lose_the_first_publish)
                metadata = {f"attr{i:02d}": "v00" for i in range(10)} | {"attr00": "v01"}
                await publisher.publish(metadata, b"only once", policy="org:acme")
                await alice.wait_for_deliveries(1, 30.0)
                await asyncio.sleep(0.3)  # a second copy would have landed by now
                return (
                    len(lost),
                    [d.payload for d in alice.stats.deliveries],
                    publisher.connection.publish_retransmits,
                    deployment.ds.duplicate_publishes,
                )
            finally:
                await deployment.close()

        lost, payloads, retransmits, duplicate_publishes = run_async(run())
        assert lost == 1
        assert payloads == [b"only once"]
        assert retransmits >= 1
        assert duplicate_publishes == 0  # the DS saw that sequence number once
