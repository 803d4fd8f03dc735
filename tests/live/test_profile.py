"""The live profiling surface: the profile in every telemetry snapshot,
scrape-time profile collection, and origin-dedup across co-hosted
services."""

from __future__ import annotations

import pytest

from repro.live.deployment import SERVICE_NAMES, LiveDeployment
from repro.obs import Observability
from repro.obs.prof import DeterministicSampler, StackSampler
from repro.pbe.schema import Interest

from .conftest import run_async, scrape, small_config

pytestmark = pytest.mark.live


@pytest.fixture
def obs():
    instance = Observability()
    yield instance
    instance.uninstall()


async def _run_traffic(deployment: LiveDeployment, publications: int = 2):
    subscriber = await deployment.add_subscriber("alice", {"org:acme"})
    await subscriber.subscribe(Interest({"topic": "a"}))
    publisher = await deployment.add_publisher("pub")
    for index in range(publications):
        await publisher.publish(
            {"topic": "a", "prio": "lo"}, f"msg {index}".encode(), policy="org:acme"
        )
    await subscriber.wait_for_deliveries(publications, 60.0)


class TestProfileRpc:
    def test_kind_profile_returns_the_samplers_snapshot(self, obs):
        sampler = DeterministicSampler(every=2, obs=obs)
        obs.profiler = sampler

        async def scenario():
            deployment = LiveDeployment(small_config(obs=obs))
            await deployment.start()
            client = deployment.telemetry_client()
            try:
                await _run_traffic(deployment)
                return await client.snapshot("ds")
            finally:
                await client.close()
                await deployment.close()

        snapshot = run_async(scenario())
        assert snapshot["service"] == "ds"
        profile = snapshot["profile"]
        assert profile["origin"] == sampler.origin
        assert profile["mode"] == "det"
        assert profile["samples"], "traffic must have produced op samples"
        # the snapshot is non-destructive: a second poll sees >= the same
        assert sampler.profile().to_dict()["samples"] == profile["samples"]

    def test_without_profiler_the_rpc_reports_none(self, obs):
        async def scenario():
            deployment = LiveDeployment(small_config(obs=obs))
            await deployment.start()
            client = deployment.telemetry_client()
            try:
                return await client.snapshot("rs")
            finally:
                await client.close()
                await deployment.close()

        snapshot = run_async(scenario())
        assert snapshot["service"] == "rs"
        assert snapshot["profile"] is None


class TestScrapeCollection:
    def test_scrape_merges_one_origin_across_cohosted_services(self, obs):
        # all four in-process services share one sampler: the aggregate
        # must carry ONE copy of its profile, attributed to all four
        obs.profiler = DeterministicSampler(every=2, obs=obs)

        async def scenario():
            deployment = LiveDeployment(small_config(obs=obs))
            await deployment.start()
            try:
                await _run_traffic(deployment)
                aggregator = await scrape(deployment)
                # scraping twice must not double the merged weights
                return await scrape(deployment, aggregator)
            finally:
                await deployment.close()

        aggregator = run_async(scenario())
        origins = aggregator.profile_origins()
        assert list(origins) == [obs.profiler.origin]
        assert origins[obs.profiler.origin] == sorted(SERVICE_NAMES)
        merged = aggregator.merged_profile()
        single = obs.profiler.profile()
        assert merged.total("count") == single.total("count")
        assert merged.mode == "det"
        # hot frames surface the crypto leaves for `live top`
        frames = [frame for frame, _self, _fraction in aggregator.hot_frames()]
        assert any(frame.startswith("op.") for frame in frames)

    def test_wall_sampler_profiles_flow_through_scrape(self, obs):
        obs.profiler = StackSampler(hz=97.0, obs=obs, origin="wall-live-1")
        obs.profiler.start()

        async def scenario():
            deployment = LiveDeployment(small_config(obs=obs))
            await deployment.start()
            try:
                await _run_traffic(deployment, publications=3)
                return await scrape(deployment)
            finally:
                await deployment.close()
                obs.profiler.stop()

        aggregator = run_async(scenario())
        assert "wall-live-1" in aggregator.profile_origins()
        merged = aggregator.merged_profile()
        assert merged.mode == "wall"
        assert merged.total("wall_s") > 0
        document = aggregator.to_json()
        assert document["profile"]["origins"]["wall-live-1"] == sorted(SERVICE_NAMES)
