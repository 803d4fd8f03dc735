"""PR-10 profiler tax: what does continuous profiling cost on the demo
pipeline?

The gated measurement is ``repro.perf.gate.probe_profiler_overhead`` — the
function `repro perf gate --only prof` re-runs against the committed
baseline; this bench calls it at bench size, adds the ungated wall mode
through the same ``time_demo`` clock, and owns the assertions and the
record metadata.  The seeded demo workload (``repro.obs.prof.workload``)
runs the full publish → match → deliver pipeline under three profiling
modes:

* **off** — observability installed, no profiler attached;
* **det** — :class:`DeterministicSampler` (op-count sampling, the
  simulator mode) at ``every=8``;
* **wall** — :class:`StackSampler` at the live-plane default 19 Hz.

off and det run interleaved inside the probe so CPU frequency drift hits
both equally; best-of-``REPEATS`` is scored.  The claims:

1. deterministic sampling recovers ≥95% of profiler-off throughput (the
   ISSUE's "within 5%" bound — op counting is just an integer divide per
   instrumented op);
2. the wall sampler at 19 Hz recovers ≥80% (it burns a whole extra
   thread's worth of ``sys._current_frames()`` walks, but at 19 Hz that
   is a few hundred stack walks over the whole run);
3. deterministic mode replays byte-identically for the pinned seed.

``P3S_WRITE_BENCH=1`` writes ``BENCH_pr10.json`` at the repo root in
the versioned schema — the committed baseline ``repro perf gate``'s
``prof`` probe compares against.
"""

from __future__ import annotations

from conftest import BenchRecord

from repro.obs.prof import StackSampler, record_demo
from repro.perf.gate import PROF_EVERY, probe_profiler_overhead, time_demo

PUBLICATIONS = 30
SEED = 7
WALL_HZ = 19.0  # the live-plane default (start_default_profiler)
REPEATS = 3
DET_RECOVERY_FLOOR = 0.95  # ISSUE: deterministic profiling within 5% of off
WALL_RECOVERY_FLOOR = 0.80


def test_bench_prof_overhead(bench_writer):
    modes = ("off", "det", "wall")
    gated, best = probe_profiler_overhead(PUBLICATIONS, SEED, REPEATS)
    best["wall"] = min(
        (
            time_demo(PUBLICATIONS, SEED, lambda obs: StackSampler(hz=WALL_HZ, obs=obs))
            for _ in range(REPEATS)
        ),
        key=lambda row: row["seconds"],
    )
    off, det, wall = (best[mode] for mode in modes)
    recovery = {
        "off": 1.0,
        "det": gated["prof.det_recovery"],
        "wall": wall["publications_per_s"] / off["publications_per_s"],
    }

    print()
    print(
        f"profiler overhead ({PUBLICATIONS} publications, seed {SEED}, "
        f"best of {REPEATS}):"
    )
    for mode in modes:
        row = best[mode]
        profile = row["profile"]
        stacks = 0 if profile is None else profile.sample_count
        print(
            f"  {mode:5s} {row['publications_per_s']:8.1f} pub/s "
            f"({recovery[mode] * 100:5.1f}% of off)  {stacks:4d} distinct stacks"
        )

    # every mode delivered the same workload
    assert det["delivered"] == off["delivered"] == wall["delivered"]
    # the profiles actually saw the pipeline
    assert det["profile"].sample_count > 0
    assert any(
        stack and stack[0] not in ("unattributed",)
        for stack in det["profile"].samples
    ), "deterministic profile carries no component attribution"
    # deterministic mode replays byte-identically for the pinned seed
    replay, _ = record_demo(PUBLICATIONS, seed=SEED, mode="det", every=PROF_EVERY)
    assert replay.folded() == det["profile"].folded()
    # the tax claims
    assert recovery["det"] >= DET_RECOVERY_FLOOR, recovery
    assert recovery["wall"] >= WALL_RECOVERY_FLOOR, recovery

    written = bench_writer(
        "BENCH_pr10.json",
        suite="prof_overhead",
        seed=SEED,
        workload={
            "publications": PUBLICATIONS,
            "seed": SEED,
            "every": PROF_EVERY,
            "wall_hz": WALL_HZ,
            "repeats": REPEATS,
        },
        records=[
            # committed floors are looser than the in-bench asserts: the
            # gate's fresh probe re-measures on smaller workloads where
            # timing noise is proportionally larger
            BenchRecord(
                "prof.det_recovery",
                recovery["det"],
                "fraction",
                floor=0.90,
                seed=SEED,
            ),
            BenchRecord(
                "prof.wall_recovery",
                min(1.0, recovery["wall"]),
                "fraction",
                floor=0.70,
                seed=SEED,
            ),
            BenchRecord(
                "prof.det_distinct_stacks",
                det["profile"].sample_count,
                "count",
            ),
            BenchRecord(
                "prof.off_publications_per_s",
                off["publications_per_s"],
                "ops/s",
            ),
        ],
    )
    if written is not None:
        print(f"wrote {written}")
