"""PR-9 observability tax: what does tracing cost, and what does
tail-based sampling buy back?

The measurement is ``repro.perf.gate.probe_obs_recovery`` — the function
`repro perf gate --only obs` re-runs against the committed baseline; this
bench calls it at bench size and owns only the assertions and the record
metadata.  One synthetic delivery pipeline — per message a publish →
fan_out → deliver span tree around a crypto-weight unit of work (iterated
SHA-256, calibrated to a few hundred microseconds: cheap relative to the
real pipeline's pairing operations, so the measured tracing tax is an
upper bound on the deployed one) — with the full KIND_SPANS scrape path
every 100 messages, which is where always-on tracing actually hurts.
Three modes, interleaved, best-of-``REPEATS``:

* **off** — no tracer at all: the baseline throughput;
* **always** — every span recorded and exported (``sampler=None``);
* **sampled** — deterministic tail sampling at 1% keep: unsampled spans
  are buffered for tail promotion and never exported.

Run with ``-s`` for the table; ``P3S_WRITE_BENCH=1`` writes
``BENCH_pr9.json`` at the repo root (the committed record).
"""

from __future__ import annotations

from conftest import BenchRecord

from repro.obs.sampling import decision
from repro.perf.gate import (
    OBS_DRAIN_EVERY,
    OBS_HASH_ROUNDS,
    OBS_KEEP_RATE,
    OBS_PAYLOAD_BYTES,
    OBS_SEED,
    probe_obs_recovery,
)

MESSAGES = 500
REPEATS = 5
RECOVERY_FLOOR = 0.90  # 1%-keep must recover ≥90% of tracing-off


def test_bench_obs_overhead(bench_writer):
    modes = ("off", "always", "sampled")
    gated, best = probe_obs_recovery(MESSAGES, REPEATS)
    off, always, sampled = (best[mode] for mode in modes)
    recovery = {
        "off": 1.0,
        "always": always["messages_per_s"] / off["messages_per_s"],
        "sampled": gated["obs_overhead.sampled_recovery"],
    }

    print()
    print(f"observability overhead ({MESSAGES} msgs, 3 spans/msg, best of {REPEATS}):")
    for mode in modes:
        row = best[mode]
        print(
            f"  {mode:8s} {row['messages_per_s']:8.0f} msg/s "
            f"({recovery[mode] * 100:5.1f}% of off)  "
            f"exported {row['exported_spans']:5d} spans / {row['exported_bytes']:7d} B"
        )

    # the claims the numbers must back, whatever the machine:
    # 1) always-on exports every span; 1%-keep exports almost none
    assert always["exported_spans"] == 3 * MESSAGES
    assert sampled["exported_spans"] < always["exported_spans"] / 10
    assert sampled["exported_bytes"] < always["exported_bytes"] / 10
    # 2) the kept trace id set is exactly the seeded head decision — the
    #    sampler is deterministic, and kept traces arrive complete
    expected_kept = [
        trace_id
        for trace_id in range(1, MESSAGES + 1)
        if decision(OBS_SEED, trace_id, OBS_KEEP_RATE)
    ]
    assert sampled["kept_traces"] == expected_kept
    assert sampled["sampler"]["kept_traces"] == len(expected_kept)
    assert sampled["sampler"]["promoted_traces"] == 0
    # 3) sampling pays for itself: 1%-keep recovers ≥90% of tracing-off
    assert recovery["sampled"] >= RECOVERY_FLOOR, recovery

    written = bench_writer(
        "BENCH_pr9.json",
        suite="obs_overhead",
        seed=OBS_SEED,
        workload={
            "messages": MESSAGES,
            "spans_per_message": 3,
            "payload_bytes": OBS_PAYLOAD_BYTES,
            "hash_rounds": OBS_HASH_ROUNDS,
            "drain_every": OBS_DRAIN_EVERY,
            "repeats": REPEATS,
            "keep_rate": OBS_KEEP_RATE,
            "seed": OBS_SEED,
        },
        records=[
            BenchRecord(
                "obs_overhead.always_recovery",
                recovery["always"],
                "fraction",
                floor=0.5,
                seed=OBS_SEED,
            ),
            BenchRecord(
                "obs_overhead.sampled_recovery",
                recovery["sampled"],
                "fraction",
                floor=RECOVERY_FLOOR,
                seed=OBS_SEED,
            ),
            BenchRecord("obs_overhead.off_messages_per_s", off["messages_per_s"], "ops/s"),
            BenchRecord(
                "obs_overhead.always_exported_spans",
                always["exported_spans"],
                "count",
                direction="lower",
            ),
            BenchRecord(
                "obs_overhead.sampled_exported_spans",
                sampled["exported_spans"],
                "count",
                direction="lower",
            ),
        ],
    )
    if written is not None:
        print(f"wrote {written}")
