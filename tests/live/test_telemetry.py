"""The live telemetry plane: one operator-only snapshot per service —
health, per-service metrics, OpenMetrics round-trips over the wire, the
flight-recorder memory-flatness guarantee, a drop count reported once per
process, and a rogue client that can neither read nor drain it."""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.core.ara import TELEMETRY_CONTEXT, RegistrationAuthority
from repro.core.messages import KIND_TELEMETRY
from repro.crypto.signing import SigningKeyPair
from repro.errors import TransportError
from repro.live import rpc
from repro.live.channel import ServerIdentity
from repro.live.deployment import SERVICE_NAMES, LiveDeployment
from repro.live.rpc import AddressBook, LiveRpcEndpoint
from repro.live.services import LiveAnonymizationService
from repro.live.telemetry import GAUGE_METRICS, telemetry_snapshot
from repro.obs import Histogram, Observability, to_openmetrics
from repro.pbe.schema import Interest

from ..obs.openmetrics import parse_openmetrics
from .conftest import run_async, scrape, small_config

pytestmark = pytest.mark.live


@pytest.fixture
def obs():
    instance = Observability()
    yield instance
    instance.uninstall()


async def _run_traffic(deployment: LiveDeployment, publications: int = 2):
    """One subscriber, one publisher, ``publications`` matching messages."""
    subscriber = await deployment.add_subscriber("alice", {"org:acme"})
    await subscriber.subscribe(Interest({"topic": "a"}))
    publisher = await deployment.add_publisher("pub")
    for index in range(publications):
        await publisher.publish(
            {"topic": "a", "prio": "lo"}, f"msg {index}".encode(), policy="org:acme"
        )
    await subscriber.wait_for_deliveries(publications, 60.0)
    await asyncio.sleep(0.2)  # acks, stores, span ends


class TestHealth:
    def test_all_four_services_report_ready(self, obs):
        async def scenario():
            deployment = LiveDeployment(small_config(obs=obs))
            await deployment.start()
            try:
                aggregator = await scrape(deployment)
            finally:
                await deployment.close()
            assert aggregator.services() == sorted(SERVICE_NAMES)
            assert aggregator.all_alive
            assert aggregator.all_ready
            for name in SERVICE_NAMES:
                checks = aggregator.health(name)["checks"]
                assert checks["trust_root_loaded"]
                assert checks["listening"]
                assert checks["dial_backoff_quiet"]
            assert aggregator.health("rs")["checks"]["gc_running"]

        run_async(scenario())

    def test_downed_service_reads_dead_and_fails_all_alive(self, obs):
        async def scenario():
            deployment = LiveDeployment(small_config(obs=obs))
            await deployment.start()
            try:
                await deployment.pbe_ts.close()
                aggregator = await scrape(deployment)
            finally:
                await deployment.close()
            assert not aggregator.health("pbe-ts")["alive"]
            assert not aggregator.all_alive
            assert not aggregator.all_ready
            # the others are unaffected
            assert aggregator.health("ds")["ready"]

        run_async(scenario())


class TestMetricsAggregation:
    def test_aggregated_op_totals_match_the_process_registry(self, obs):
        async def scenario():
            deployment = LiveDeployment(small_config(obs=obs))
            await deployment.start()
            try:
                await _run_traffic(deployment)
                return await scrape(deployment)
            finally:
                await deployment.close()

        aggregator = run_async(scenario())
        # every op.* series the services attributed to themselves must
        # reappear, with the same totals, in the aggregated view
        expected: dict[str, float] = {}
        for (name, label_key), counter in obs.metrics.counters.items():
            if name.startswith("op.") and dict(label_key).get("component") in SERVICE_NAMES:
                expected[name] = expected.get(name, 0) + counter.value
        assert expected, "traffic should have produced service-attributed ops"
        for name, total in expected.items():
            assert aggregator.counter_total(name) == total, name
        # and the DS protocol counters came through under their service:
        # each publication is two PUBLISH frames (metadata + payload)
        assert aggregator.service_counter_total("ds", "ds.published") == 4
        assert aggregator.service_counter_total("ds", "ds.delivered") >= 2

    def test_per_service_transport_counters_present(self, obs):
        async def scenario():
            deployment = LiveDeployment(small_config(obs=obs))
            await deployment.start()
            try:
                await _run_traffic(deployment, publications=1)
                return await scrape(deployment)
            finally:
                await deployment.close()

        aggregator = run_async(scenario())
        for name in SERVICE_NAMES:
            assert aggregator.service_counter_total(name, "live.net.rx_bytes") > 0
            assert aggregator.service_counter_total(name, "live.net.rx_frames") > 0
            assert aggregator.service_counter_total(name, "live.rpc.open_connections") > 0
        # the DS sends deliveries, so it must have counted tx traffic too
        assert aggregator.service_counter_total("ds", "live.net.tx_bytes") > 0


class TestExpositionOverRpc:
    def test_openmetrics_round_trips_through_the_wire(self, obs):
        # the exposition operators read (`live status --metrics-out`) is
        # rendered from the scraped, merged registry
        async def scenario():
            deployment = LiveDeployment(small_config(obs=obs))
            await deployment.start()
            client = deployment.telemetry_client()
            try:
                await _run_traffic(deployment)
                snapshot = await client.snapshot("ds")
                aggregator = await client.scrape()
            finally:
                await client.close()
                await deployment.close()
            return snapshot, aggregator

        snapshot, aggregator = run_async(scenario())
        text = to_openmetrics(aggregator.merged_registry(), gauge_names=GAUGE_METRICS)
        parsed = parse_openmetrics(text)
        published = next(
            entry["value"]
            for entry in snapshot["counters"]
            if entry["name"] == "ds.published"
        )
        assert parsed.value("p3s_ds_published_total", service="ds") == published
        assert parsed.types["p3s_ds_published"] == "counter"
        # gauges keep their unsuffixed names and gauge type
        assert parsed.types["p3s_live_rpc_open_connections"] == "gauge"
        assert parsed.value("p3s_live_rpc_open_connections", service="ds") > 0


class TestFlightRecorderAcceptance:
    def test_memory_flat_with_correct_latency_percentiles(self):
        capacity = 48
        obs = Observability(span_capacity=capacity)
        try:

            async def scenario():
                deployment = LiveDeployment(small_config(obs=obs))
                await deployment.start()
                try:
                    # phase 1 — an unpolled burst: far more spans than the
                    # ring holds, so evictions must happen and storage must
                    # stay flat at the bound
                    await _run_traffic(deployment, publications=6)
                    assert obs.tracer.dropped_spans > 0
                    assert len(obs.tracer.spans) <= capacity
                    aggregator = await scrape(deployment)
                    # phase 2 — polled traffic, the pattern `live top`
                    # drives: scraping between publications reassembles
                    # complete traces across drains even though the ring
                    # never holds a whole trace's history at once
                    publisher = deployment.publishers["pub"]
                    subscriber = deployment.subscribers["alice"]
                    for index in range(2):
                        await publisher.publish(
                            {"topic": "a", "prio": "lo"},
                            f"polled {index}".encode(),
                            policy="org:acme",
                        )
                        aggregator = await scrape(deployment, aggregator)
                    await subscriber.wait_for_deliveries(8, 60.0)
                    await asyncio.sleep(0.2)
                    aggregator = await scrape(deployment, aggregator)
                    first_count = len(aggregator.spans())
                    # drains are exactly-once: a second sweep adds nothing
                    aggregator = await scrape(deployment, aggregator)
                    assert len(aggregator.spans()) == first_count
                    assert len(obs.tracer.spans) <= capacity
                    return aggregator
                finally:
                    await deployment.close()

            aggregator = run_async(scenario())
        finally:
            obs.uninstall()
        assert aggregator.total_dropped_spans > 0
        latencies = aggregator.publish_deliver_latencies()
        # evicted traces are skipped, but the freshest ones survive whole
        assert latencies
        assert all(value > 0 for value in latencies)
        summary = aggregator.latency_summary()
        reference = Histogram("ref", ())
        for value in latencies:
            reference.observe(value)
        assert summary["count"] == len(latencies)
        assert summary["p50_s"] == reference.percentile(0.5)
        assert summary["p95_s"] == reference.percentile(0.95)
        assert summary["p50_s"] <= summary["p95_s"] <= summary["max_s"]


class TestBackoffReadiness:
    def test_dial_backoff_fails_readiness_until_it_resolves(self, group, monkeypatch):
        config = small_config()
        monkeypatch.setattr(rpc, "RECONNECT_ATTEMPTS", 4)
        monkeypatch.setattr(rpc, "BACKOFF_BASE_S", 0.3)
        monkeypatch.setattr(rpc, "BACKOFF_CAP_S", 0.6)
        monkeypatch.setattr(rpc, "CONNECT_TIMEOUT_S", 0.5)

        async def scenario():
            ara = RegistrationAuthority(group, config.schema)
            book = AddressBook()
            identity = ServerIdentity.issue(ara, group, "anon")
            endpoint = LiveRpcEndpoint(
                "anon",
                book,
                ara_verify_key=ara.directory.ara_verify_key,
                identity=identity,
            )
            service = LiveAnonymizationService(endpoint)
            host, port = await service.start()
            book.register("anon", host, port, identity.service_key)
            # a directory entry nobody listens on: grab a port, release it
            probe = socket.socket()
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
            probe.close()
            ghost = ServerIdentity.issue(ara, group, "ghost")
            book.register("ghost", "127.0.0.1", dead_port, ghost.service_key)
            try:
                assert telemetry_snapshot(service)["ready"]
                call = asyncio.ensure_future(
                    endpoint.call("ghost", "p3s.anything", None, timeout_s=10.0)
                )
                await asyncio.sleep(0.45)  # inside the retry backoff window
                during = telemetry_snapshot(service)
                assert during["checks"]["dial_backoff_quiet"] is False
                assert not during["ready"]
                with pytest.raises(TransportError):
                    await call
                after = telemetry_snapshot(service)
                assert after["checks"]["dial_backoff_quiet"] is True
                assert after["ready"]
                assert endpoint.reconnects >= 1
            finally:
                await service.close()

        run_async(scenario())


class TestDroppedSpans:
    def test_one_process_reports_its_drop_count_once_and_sweeps_do_not_grow_it(self):
        # four services share one flight recorder: each snapshot carries the
        # same cumulative count, which must be counted once, not per service
        # and not once more per sweep
        obs = Observability(span_capacity=8)
        try:

            async def scenario():
                deployment = LiveDeployment(small_config(obs=obs))
                await deployment.start()
                try:
                    await _run_traffic(deployment)
                    aggregator = await scrape(deployment)
                    first = (aggregator.total_dropped_spans, obs.tracer.dropped_spans)
                    aggregator = await scrape(deployment, aggregator)
                    return first, (aggregator.total_dropped_spans, obs.tracer.dropped_spans)
                finally:
                    await deployment.close()

            first, second = run_async(scenario())
        finally:
            obs.uninstall()
        assert first[1] > 0
        assert first[0] == first[1]
        assert second[0] == second[1]


class TestOperatorOnly:
    def test_a_rogue_drains_nothing_and_the_operator_sees_every_span(self, obs):
        async def scenario():
            deployment = LiveDeployment(small_config(obs=obs))
            await deployment.start()
            rogue = deployment._client_endpoint("rogue-subscriber")
            zr_bytes = deployment.plan.group.zr_bytes
            try:
                await _run_traffic(deployment)
                finished = {(s.trace_id, s.span_id) for s in obs.tracer.spans if s.finished}
                requests = [
                    None,  # unsigned
                    # signed, but not by the ARA
                    SigningKeyPair(deployment.plan.group)
                    .sign(TELEMETRY_CONTEXT + b"ds").to_bytes(zr_bytes),
                    # the operator's request to the RS, replayed to the DS
                    deployment.plan.ara.sign_telemetry_request("rs").to_bytes(zr_bytes),
                ]  # fmt: skip
                for request in requests:
                    with pytest.raises(TransportError, match="timed out"):
                        await rogue.call("ds", KIND_TELEMETRY, request, timeout_s=0.5)
                return finished, await scrape(deployment)
            finally:
                await rogue.close()
                await deployment.close()

        finished, aggregator = run_async(scenario())
        assert obs.metrics.counter_total("op.rpc.frame_rejected") == 3
        seen = {(span["trace_id"], span["span_id"]) for span in aggregator.spans()}
        assert finished and finished <= seen
        assert any(
            span["name"] == "subscriber.retrieve" and span["component"] == "alice"
            for span in aggregator.spans()
        )
