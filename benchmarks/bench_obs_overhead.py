"""The observability tax: what does recording and scraping every span cost?

The measurement is ``repro.perf.gate.probe_obs_recovery`` — the function
`repro perf gate --only obs` re-runs against the committed baseline; this
bench calls it at bench size and owns only the assertions and the record
metadata.  One synthetic delivery pipeline — per message a publish →
fan_out → deliver span tree around a crypto-weight unit of work (iterated
SHA-256, calibrated to a few hundred microseconds: cheap relative to the
real pipeline's pairing operations, so the measured tracing tax is an
upper bound on the deployed one) — with the span half of the telemetry
scrape path (drain, snapshot JSON, aggregator ingest) every 100
messages, which is where always-on tracing actually hurts.
Two modes, interleaved, best-of-``REPEATS``:

* **off** — no tracer at all: the baseline throughput;
* **always** — every span recorded and exported, which is what every
  entry point runs (the SLO engine judges delivery latency from
  reassembled traces, so it needs all of them).

Run with ``-s`` for the table; ``P3S_WRITE_BENCH=1`` writes
``BENCH_pr9.json`` at the repo root (the committed record).
"""

from __future__ import annotations

from conftest import BenchRecord

from repro.perf.gate import (
    OBS_DRAIN_EVERY,
    OBS_HASH_ROUNDS,
    OBS_PAYLOAD_BYTES,
    probe_obs_recovery,
)

MESSAGES = 500
REPEATS = 5
RECOVERY_FLOOR = 0.5  # always-on tracing must keep at least half of tracing-off
# Twenty gate-size probes on the recording machine read 0.82-1.0 against a
# bench-size 0.94 (0.78 has been read on another): the band has to hold
# the probe's own spread.
RECOVERY_TOLERANCE = 0.25


def test_bench_obs_overhead(bench_writer):
    gated, best = probe_obs_recovery(MESSAGES, REPEATS)
    off, always = best["off"], best["always"]
    recovery = gated["obs_overhead.always_recovery"]

    print()
    print(f"observability overhead ({MESSAGES} msgs, 3 spans/msg, best of {REPEATS}):")
    for mode, row in best.items():
        share = 1.0 if mode == "off" else recovery
        print(
            f"  {mode:8s} {row['messages_per_s']:8.0f} msg/s "
            f"({share * 100:5.1f}% of off)  "
            f"exported {row['exported_spans']:5d} spans / {row['exported_bytes']:7d} B"
        )

    # the claims the numbers must back, whatever the machine:
    # 1) every span is exported and every trace reassembles complete — the
    #    population the delivery-latency SLO is judged on
    assert always["exported_spans"] == 3 * MESSAGES
    assert always["traces"] == MESSAGES
    # 2) the tax is bounded
    assert recovery >= RECOVERY_FLOOR, recovery

    written = bench_writer(
        "BENCH_pr9.json",
        suite="obs_overhead",
        workload={
            "messages": MESSAGES,
            "spans_per_message": 3,
            "payload_bytes": OBS_PAYLOAD_BYTES,
            "hash_rounds": OBS_HASH_ROUNDS,
            "drain_every": OBS_DRAIN_EVERY,
            "repeats": REPEATS,
        },
        records=[
            BenchRecord(
                "obs_overhead.always_recovery",
                recovery,
                "fraction",
                tolerance=RECOVERY_TOLERANCE,
                floor=RECOVERY_FLOOR,
            ),
            BenchRecord("obs_overhead.off_messages_per_s", off["messages_per_s"], "ops/s"),
            BenchRecord(
                "obs_overhead.always_exported_spans",
                always["exported_spans"],
                "count",
                direction="lower",
            ),
        ],
    )
    if written is not None:
        print(f"wrote {written}")
