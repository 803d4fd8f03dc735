"""PR-3 live transport: loopback RTT and publish→deliver latency.

Three measurements over real TCP sockets on 127.0.0.1, all through the
full secure stack (length-prefixed frames, per-record AEAD, trace-DH
handshake):

* **rpc echo RTT** — one `LiveRpcEndpoint.call` round-trip with a
  trivial handler, the floor every P3S RPC pays on this substrate;
* **publish→deliver latency** — wall time from `publish()` to the
  matching subscriber appending the opened plaintext (PBE encrypt, DS
  fan-out, CP-ABE encrypt/store, HVE match, anonymized retrieve, CP-ABE
  decrypt — every Fig. 4 arrow over its own socket);
* **pipelined throughput** — a burst of publications in flight at once,
  measured to last delivery.

The simulator wall time for the same publish→deliver scenario is
reported alongside so the cost of real sockets is visible next to the
cost of the cryptography (which dominates).

Run with ``-s`` for the table; ``P3S_WRITE_BENCH=1`` writes
``BENCH_pr3.json`` at the repo root (the committed record).
"""

from __future__ import annotations

import asyncio
import statistics
import time

import pytest
from conftest import BenchRecord

from repro.core.config import P3SConfig
from repro.live.channel import ServerIdentity
from repro.live.deployment import LiveDeployment
from repro.live.rpc import AddressBook, LiveRpcEndpoint
from repro.live.scenario import (
    PublicationSpec,
    Scenario,
    SubscriberSpec,
    run_on_live,
    run_on_simulator,
)
from repro.obs.metrics import nearest_rank
from repro.pbe.schema import AttributeSpec, Interest, MetadataSchema

pytestmark = pytest.mark.live

ECHO_CALLS = 200
LATENCY_PUBLICATIONS = 10
BURST_PUBLICATIONS = 20

SCHEMA = MetadataSchema(
    [AttributeSpec("topic", ("a", "b")), AttributeSpec("prio", ("lo", "hi"))]
)


def _config() -> P3SConfig:
    return P3SConfig(schema=SCHEMA)


async def _measure_echo_rtt() -> dict:
    """Raw secure-RPC round-trip over loopback, trivial handler."""
    from repro.core.ara import RegistrationAuthority
    from repro.crypto.group import PairingGroup

    group = PairingGroup("TOY")
    ara = RegistrationAuthority(group, SCHEMA)
    server = LiveRpcEndpoint(
        "svc",
        AddressBook(),
        ara_verify_key=ara.directory.ara_verify_key,
        identity=ServerIdentity.issue(ara, group, "svc"),
    )
    server.serve("echo", lambda src, msg: (msg.payload, len(msg.payload)))
    host, port = await server.start_server()
    book = AddressBook()
    book.register("svc", host, port, server.identity.service_key)
    client = LiveRpcEndpoint(
        "cli", book, ara_verify_key=ara.directory.ara_verify_key
    )
    try:
        payload = b"x" * 256
        await client.call("svc", "echo", payload)  # dial + handshake, untimed
        samples = []
        for _ in range(ECHO_CALLS):
            started = time.perf_counter()
            await client.call("svc", "echo", payload)
            samples.append(time.perf_counter() - started)
        return {
            "calls": ECHO_CALLS,
            "payload_bytes": len(payload),
            "mean_ms": statistics.mean(samples) * 1e3,
            "median_ms": statistics.median(samples) * 1e3,
            "p95_ms": nearest_rank(sorted(samples), 0.95) * 1e3,
        }
    finally:
        await client.close()
        await server.close()


async def _measure_publish_deliver() -> dict:
    """Serial publish→deliver wall latency through every P3S party."""
    deployment = LiveDeployment(_config())
    await deployment.start()
    try:
        alice = await deployment.add_subscriber("alice", {"org"})
        await alice.subscribe(Interest({"topic": "a"}))
        publisher = await deployment.add_publisher("pub")
        samples = []
        for index in range(LATENCY_PUBLICATIONS):
            started = time.perf_counter()
            await publisher.publish(
                {"topic": "a", "prio": "lo"}, b"p%d" % index, policy="org"
            )
            await alice.wait_for_deliveries(index + 1, timeout_s=60.0)
            samples.append(time.perf_counter() - started)
        return {
            "publications": LATENCY_PUBLICATIONS,
            "mean_ms": statistics.mean(samples) * 1e3,
            "median_ms": statistics.median(samples) * 1e3,
            "p95_ms": nearest_rank(sorted(samples), 0.95) * 1e3,
        }
    finally:
        await deployment.close()


async def _measure_burst_throughput() -> dict:
    """All publications in flight at once; time to the last delivery."""
    deployment = LiveDeployment(_config())
    await deployment.start()
    try:
        alice = await deployment.add_subscriber("alice", {"org"})
        await alice.subscribe(Interest({"topic": "a"}))
        publisher = await deployment.add_publisher("pub")
        started = time.perf_counter()
        await asyncio.gather(
            *(
                publisher.publish(
                    {"topic": "a", "prio": "lo"}, b"b%d" % index, policy="org"
                )
                for index in range(BURST_PUBLICATIONS)
            )
        )
        await alice.wait_for_deliveries(BURST_PUBLICATIONS, timeout_s=120.0)
        elapsed = time.perf_counter() - started
        return {
            "publications": BURST_PUBLICATIONS,
            "total_s": elapsed,
            "per_publication_ms": elapsed / BURST_PUBLICATIONS * 1e3,
            "publications_per_s": BURST_PUBLICATIONS / elapsed,
        }
    finally:
        await deployment.close()


def _measure_substrate_overhead() -> dict:
    """Same scenario on the simulator and over TCP; wall-clock both."""
    scenario = Scenario(
        subscribers=(
            SubscriberSpec("alice", frozenset({"org"}), (Interest({"topic": "a"}),)),
        ),
        publications=tuple(
            PublicationSpec(
                (("prio", "lo"), ("topic", "a")), b"s%d" % index, "org"
            )
            for index in range(5)
        ),
    )
    started = time.perf_counter()
    simulated = run_on_simulator(scenario, _config())
    sim_s = time.perf_counter() - started
    started = time.perf_counter()
    live = asyncio.run(
        asyncio.wait_for(
            run_on_live(scenario, _config(), expected=simulated, settle_s=0.0),
            120.0,
        )
    )
    live_s = time.perf_counter() - started
    assert simulated == live  # overhead numbers only count if parity holds
    return {
        "publications": 5,
        "simulator_s": sim_s,
        "live_s": live_s,
        "live_over_sim": live_s / sim_s,
    }


def test_live_rtt_report(capsys, bench_writer):
    echo = asyncio.run(asyncio.wait_for(_measure_echo_rtt(), 120.0))
    latency = asyncio.run(asyncio.wait_for(_measure_publish_deliver(), 300.0))
    burst = asyncio.run(asyncio.wait_for(_measure_burst_throughput(), 300.0))
    overhead = _measure_substrate_overhead()

    # sanity floors: the transport works and is not pathologically slow
    assert echo["median_ms"] < 100.0
    assert latency["publications"] == LATENCY_PUBLICATIONS
    assert burst["publications_per_s"] > 0.1

    with capsys.disabled():
        print(
            f"\nlive transport (loopback TCP, TOY params):\n"
            f"  rpc echo RTT          median {echo['median_ms']:7.2f} ms   "
            f"p95 {echo['p95_ms']:7.2f} ms   ({echo['calls']} calls)\n"
            f"  publish -> deliver    median {latency['median_ms']:7.2f} ms   "
            f"p95 {latency['p95_ms']:7.2f} ms   "
            f"({latency['publications']} serial publications)\n"
            f"  burst x{burst['publications']:<3d}           "
            f"{burst['publications_per_s']:7.2f} pub/s   "
            f"({burst['per_publication_ms']:.1f} ms each pipelined)\n"
            f"  substrate overhead    live {overhead['live_s']:.2f} s vs "
            f"sim {overhead['simulator_s']:.2f} s "
            f"({overhead['live_over_sim']:.2f}x, same 5-publication scenario)"
        )

    bench_writer(
        "BENCH_pr3.json",
        suite="live_substrate",
        workload={
            "param_set": "TOY",
            "transport": "loopback TCP + AEAD records",
            "schema_attributes": 2,
        },
        records=[
            BenchRecord(
                "live_substrate.rpc_echo_p95_ms", echo["p95_ms"], "ms", direction="lower"
            ),
            BenchRecord(
                "live_substrate.publish_deliver_p95_ms",
                latency["p95_ms"],
                "ms",
                direction="lower",
            ),
            BenchRecord(
                "live_substrate.publications_per_s",
                burst["publications_per_s"],
                "ops/s",
                floor=1.0,
            ),
            BenchRecord(
                "live_substrate.live_over_sim",
                overhead["live_over_sim"],
                "ratio",
                direction="lower",
                ceiling=25.0,
            ),
        ],
    )
