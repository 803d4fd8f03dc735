"""PR-4 live telemetry: scrape cost, exposition cost, recorder overhead.

What does it cost to watch a running deployment?  Three measurements
over a real loopback `LiveDeployment` carrying publish traffic:

* **full scrape RTT** — one `TelemetryClient.scrape()` sweep: health +
  metrics + span drain for all four services (12 authenticated RPCs)
  merged into the aggregator.  This is one refresh of `repro live top`;
* **exposition render** — `to_openmetrics` over the merged registry,
  time and output size.  This is the Prometheus scrape body;
* **flight recorder tax** — publish→deliver latency with the bounded
  ring recorder installed vs. with observability fully disabled, on the
  same deployment shape.  The delta is what always-on telemetry costs
  the data path.

Run with ``-s`` for the table; ``P3S_WRITE_BENCH=1`` writes
``BENCH_pr4.json`` at the repo root (the committed record).
"""

from __future__ import annotations

import asyncio
import statistics
import time

import pytest
from conftest import BenchRecord

from repro.core.config import P3SConfig
from repro.live.deployment import LiveDeployment
from repro.live.telemetry import GAUGE_METRICS
from repro.obs import Observability, parse_openmetrics, to_openmetrics
from repro.pbe.schema import AttributeSpec, Interest, MetadataSchema

pytestmark = pytest.mark.live

SCRAPE_SWEEPS = 20
TAX_PUBLICATIONS = 6
RECORDER_CAPACITY = 4096

SCHEMA = MetadataSchema(
    [AttributeSpec("topic", ("a", "b")), AttributeSpec("prio", ("lo", "hi"))]
)


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


async def _measure_scrape_and_exposition() -> tuple[dict, dict]:
    """Scrape sweeps against a deployment with live traffic behind it."""
    obs = Observability(span_capacity=RECORDER_CAPACITY)
    try:
        deployment = LiveDeployment(P3SConfig(schema=SCHEMA, obs=obs))
        await deployment.start()
        client = deployment.telemetry_client("bench")
        try:
            alice = await deployment.add_subscriber("alice", {"org"})
            await alice.subscribe(Interest({"topic": "a"}))
            publisher = await deployment.add_publisher("pub")
            for index in range(4):
                await publisher.publish(
                    {"topic": "a", "prio": "lo"}, b"t%d" % index, policy="org"
                )
            await alice.wait_for_deliveries(4, timeout_s=120.0)
            await asyncio.sleep(0.2)

            aggregator = await client.scrape()  # dials + handshakes, untimed
            samples = []
            for _ in range(SCRAPE_SWEEPS):
                started = time.perf_counter()
                aggregator = await client.scrape(aggregator)
                samples.append(time.perf_counter() - started)
            scrape = {
                "sweeps": SCRAPE_SWEEPS,
                "services": len(aggregator.services()),
                "rpcs_per_sweep": 3 * len(aggregator.services()),
                "mean_ms": statistics.mean(samples) * 1e3,
                "median_ms": statistics.median(samples) * 1e3,
                "p95_ms": _percentile(samples, 0.95) * 1e3,
            }

            registry = aggregator.merged_registry()
            started = time.perf_counter()
            text = to_openmetrics(registry, gauge_names=GAUGE_METRICS)
            render_s = time.perf_counter() - started
            parsed = parse_openmetrics(text)  # the body must round-trip
            exposition = {
                "series": len(parsed.samples),
                "bytes": len(text.encode()),
                "render_ms": render_s * 1e3,
            }
            return scrape, exposition
        finally:
            await client.close()
            await deployment.close()
    finally:
        obs.uninstall()


async def _publish_deliver_median(config: P3SConfig) -> float:
    deployment = LiveDeployment(config)
    await deployment.start()
    try:
        alice = await deployment.add_subscriber("alice", {"org"})
        await alice.subscribe(Interest({"topic": "a"}))
        publisher = await deployment.add_publisher("pub")
        samples = []
        for index in range(TAX_PUBLICATIONS):
            started = time.perf_counter()
            await publisher.publish(
                {"topic": "a", "prio": "lo"}, b"x%d" % index, policy="org"
            )
            await alice.wait_for_deliveries(index + 1, timeout_s=60.0)
            samples.append(time.perf_counter() - started)
        return statistics.median(samples)
    finally:
        await deployment.close()


def _measure_recorder_tax() -> dict:
    """Data-path latency with the ring recorder on vs. obs fully off."""
    off_s = asyncio.run(
        asyncio.wait_for(_publish_deliver_median(P3SConfig(schema=SCHEMA)), 300.0)
    )
    obs = Observability(span_capacity=RECORDER_CAPACITY)
    try:
        on_s = asyncio.run(
            asyncio.wait_for(
                _publish_deliver_median(P3SConfig(schema=SCHEMA, obs=obs)), 300.0
            )
        )
        dropped = obs.tracer.dropped_spans
    finally:
        obs.uninstall()
    return {
        "publications": TAX_PUBLICATIONS,
        "recorder_capacity": RECORDER_CAPACITY,
        "median_off_ms": off_s * 1e3,
        "median_on_ms": on_s * 1e3,
        "overhead_pct": (on_s / off_s - 1.0) * 100.0,
        "dropped_spans": dropped,
    }


def test_live_telemetry_report(capsys, bench_writer):
    scrape, exposition = asyncio.run(
        asyncio.wait_for(_measure_scrape_and_exposition(), 300.0)
    )
    tax = _measure_recorder_tax()

    # sanity floors: telemetry works and is not pathologically slow
    assert scrape["services"] == 4
    assert scrape["median_ms"] < 1000.0
    assert exposition["series"] > 0

    with capsys.disabled():
        print(
            f"\nlive telemetry (loopback TCP, TOY params):\n"
            f"  full scrape sweep     median {scrape['median_ms']:7.2f} ms   "
            f"p95 {scrape['p95_ms']:7.2f} ms   "
            f"({scrape['rpcs_per_sweep']} RPCs, {scrape['sweeps']} sweeps)\n"
            f"  openmetrics render    {exposition['render_ms']:7.2f} ms   "
            f"{exposition['bytes']} bytes, {exposition['series']} series\n"
            f"  recorder tax          {tax['median_on_ms']:7.2f} ms vs "
            f"{tax['median_off_ms']:7.2f} ms publish->deliver "
            f"({tax['overhead_pct']:+.1f}%, capacity {tax['recorder_capacity']})"
        )

    bench_writer(
        "BENCH_pr4.json",
        suite="telemetry",
        workload={
            "param_set": "TOY",
            "transport": "loopback TCP + AEAD records",
            "services_scraped": 4,
        },
        records=[
            BenchRecord("telemetry.scrape_p95_ms", scrape["p95_ms"], "ms", direction="lower"),
            BenchRecord(
                "telemetry.exposition_render_ms",
                exposition["render_ms"],
                "ms",
                direction="lower",
            ),
            BenchRecord(
                "telemetry.flight_recorder_overhead_pct",
                tax["overhead_pct"],
                "count",
                direction="lower",
                ceiling=80.0,
            ),
        ],
    )
