"""PR-8 cluster scaling: delivered publications/second vs DS shard count.

The broker's serialized resource in the simulator is its egress
interface: every P_E envelope fanned out to every matching subscriber
queues on the one DS NIC (Table 1's ℬ).  Sharding the DS tier gives the
deployment K independent egress interfaces and routes each publication
(by GUID) to exactly one of them — so aggregate delivery throughput
should scale near-linearly in K until some unsharded stage (publisher
uplink, anonymizer, fixed pipeline latency) dominates.

Workload: 8 matching subscribers, 36 publications on the paper's 40-bit
metadata schema, DS→subscriber links pinned to 1 Mb/s so the envelope
fan-out is the bottleneck; RS tier fixed at 2 shards, replication 2.
Throughput = total application deliveries / simulated makespan.

Run with ``-s`` for the table; ``P3S_WRITE_BENCH=1`` writes
``BENCH_pr8.json`` at the repo root (the committed record).
"""

from __future__ import annotations

from conftest import BenchRecord

from repro.core.config import P3SConfig
from repro.core.system import P3SSystem
from repro.pbe.schema import Interest

SUBSCRIBERS = 8
PUBLICATIONS = 36
DS_LINK_BPS = 1_000_000  # the constrained broker egress (per subscriber link)
PAYLOAD = b"x" * 256
SHARD_COUNTS = (1, 2, 4)

# near-linear, with headroom for the binomial GUID split: 36 random
# GUIDs over 2 shards occasionally land ~22/14, capping the measured
# speedup at ~36/22; the committed BENCH_pr8.json records a typical run
MIN_SPEEDUP_2_SHARDS = 1.45


def _metadata() -> dict[str, str]:
    meta = {f"attr{i:02d}": "v00" for i in range(10)}
    meta["attr00"] = "v01"
    return meta


def _run_topology(ds_shards: int) -> dict:
    """One full episode; returns deliveries, sim makespan, and throughput."""
    system = P3SSystem(
        P3SConfig(ds_shards=ds_shards, rs_shards=2, rs_replication=2)
    )
    try:
        for i in range(SUBSCRIBERS):
            subscriber = system.add_subscriber(f"sub{i:02d}", {"org"})
            # cover the DS-egress skew between a subscriber's envelope and
            # the queued DS→RS payload forward: the race costs retries,
            # never deliveries
            subscriber.retrieval_retries = 60
            subscriber.retry_delay_s = 0.2
            system.subscribe(subscriber, Interest({"attr00": "v01"}))
        system.run()
        for ds in system.ds_shards.values():
            for name in system.subscribers:
                system.network.host(ds.name).set_link_bandwidth(name, DS_LINK_BPS)
        publisher = system.add_publisher("pub")
        started = system.now
        for _ in range(PUBLICATIONS):
            publisher.publish(_metadata(), PAYLOAD, policy="org")
        system.run()
        makespan = system.now - started
        delivered = sum(
            len(s.stats.deliveries) for s in system.subscribers.values()
        )
        failed = sum(s.stats.failed_fetches for s in system.subscribers.values())
        return {
            "ds_shards": ds_shards,
            "deliveries": delivered,
            "failed_fetches": failed,
            "sim_makespan_s": makespan,
            "deliveries_per_s": delivered / makespan,
        }
    finally:
        system.close()


def test_ds_sharding_scales_delivery_throughput(capsys, bench_writer):
    rows = [_run_topology(k) for k in SHARD_COUNTS]
    base = rows[0]["deliveries_per_s"]
    for row in rows:
        row["speedup"] = row["deliveries_per_s"] / base

    with capsys.disabled():
        print(
            f"\ncluster scaling ({SUBSCRIBERS} subscribers x "
            f"{PUBLICATIONS} publications, DS links {DS_LINK_BPS / 1e6:.0f} Mb/s):"
        )
        for row in rows:
            print(
                f"  {row['ds_shards']} DS shard(s): "
                f"{row['deliveries_per_s']:7.1f} deliveries/s "
                f"(makespan {row['sim_makespan_s']:6.3f} s, "
                f"x{row['speedup']:.2f})"
            )

    # the claims the numbers must back, whatever the machine:
    expected = SUBSCRIBERS * PUBLICATIONS
    for row in rows:
        assert row["deliveries"] == expected  # sharding never loses a delivery
        assert row["failed_fetches"] == 0  # retries absorb the store race
    by_shards = {row["ds_shards"]: row for row in rows}
    assert by_shards[2]["speedup"] >= MIN_SPEEDUP_2_SHARDS
    assert by_shards[4]["speedup"] > by_shards[2]["speedup"]  # still climbing at 4

    bench_writer(
        "BENCH_pr8.json",
        suite="cluster",
        workload={
            "subscribers": SUBSCRIBERS,
            "publications": PUBLICATIONS,
            "payload_bytes": len(PAYLOAD),
            "ds_subscriber_link_bps": DS_LINK_BPS,
            "rs_shards": 2,
            "rs_replication": 2,
        },
        records=[
            # sub-linear but real scaling: at least half the ideal speedup
            BenchRecord(
                f"cluster.speedup_ds{row['ds_shards']}",
                row["speedup"],
                "ratio",
                floor=row["ds_shards"] / 2,
            )
            for row in rows
            if row["ds_shards"] > 1
        ],
    )
