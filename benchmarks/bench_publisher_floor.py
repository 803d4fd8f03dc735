"""PR 20, the publisher floor: what one ``HVE.encrypt`` and one comb-table
build cost on the parent commit and on this one — ``BENCH_pr20.json``.

Two commits cannot be timed from one tree, so the test below measures
nothing itself: it turns the reads of one sitting (same box, same hour, sides
alternating) into records.  ``$P3S_BENCH_RUNS/publisher_floor`` names a directory holding,
for ``side`` in ``parent``/``change`` and each round ``N``:

* ``<side>-N/result-sim-paper-trace.json`` — that commit's
  ``python3 benchmarks/e2e/run.py --workload sim-paper --trace 1 --seed N
  --out <side>-N``: the harness's own ladder rungs, as the harness reads
  them (``benchmarks/e2e`` is not edited and has no second timer here);
* ``<side>-N/table_build.json`` — ``PYTHONPATH=<that commit>/src python
  benchmarks/bench_publisher_floor.py > …``: this file's
  :func:`table_build_ms` over that commit's arithmetic (the ladder has no
  table-build rung);
* ``e2e/<workload>-<seed>.jsonl`` — one line per untraced
  ``benchmarks/e2e/run.py --workload … --trace 0 --seed …`` run of the
  alternating pairs, ``{"side", "pair", "result": <the harness's last
  stdout line>}``: kept per run under ``workload.e2e_reads`` so the paired
  table of docs/PERFORMANCE.md can be re-derived (``w5-…``: the
  signed-digit ceiling, "parent" = this tree, "change" = a scratch copy
  with ``_FB_WINDOW = 5``; ``final-…``: two pairs after the review pass).

A record is the median of its side's reads; ``<name>.parent`` is the
parent's.  One ratio is machine-independent and carries a ceiling that
``repro perf gate --smoke`` checks: ``hve.encrypt_ms`` over 2n = 80
single comb multiplications (``curve.fixed_base_mul_ms``) at ``PAPER`` —
≥ 1 while every multiplication pays its own inversion, ≈ 0.7 in
lock-step.  Without ``$P3S_BENCH_RUNS/publisher_floor`` the bench skips;
``P3S_WRITE_BENCH=1`` writes the file.
"""

from __future__ import annotations

import glob
import json
import os
import statistics

import pytest
from conftest import BenchRecord, e2e_reads

RUNGS = ("hve.encrypt_ms", "curve.fixed_base_mul_ms", "curve.scalar_mul_ms")
RATIO = "ladder.PAPER.hve.encrypt_over_fixed_base_mul"
RATIO_CEILING = 0.9
VECTOR_BITS = 40  # default_schema() under the bit encoding: 2n = 80 multiplications an encryption


def table_build_ms(repeats: int = 5) -> dict[str, float]:
    """One whole comb table of a fresh base, at the width ``Point.comb_table``
    builds and with every entry a scalar can select filled, median of
    ``repeats``, at ``TOY`` and ``PAPER`` — over whichever ``repro`` is on
    the path."""
    from bench_comb_first_use import fill_scalars, whole_table_s

    from repro.crypto.group import PairingGroup

    out = {}
    for name in ("TOY", "PAPER"):
        group = PairingGroup(name)
        scalars = fill_scalars(group)
        bases = [group.generator * group.random_zr() for _ in range(repeats)]
        samples = [whole_table_s(base, scalars) for base in bases]
        out[f"publisher_floor.{name}.table_build_ms"] = statistics.median(samples) * 1e3
    return out


def _reads(runs: str) -> dict[str, list[float]]:
    reads: dict[str, list[float]] = {}
    for side, suffix in (("parent", ".parent"), ("change", "")):
        for directory in sorted(glob.glob(os.path.join(runs, f"{side}-*"))):
            with open(os.path.join(directory, "result-sim-paper-trace.json")) as handle:
                harness = json.load(handle)["metrics"]
            metrics = {name: entry["value"] for name, entry in harness.items()}
            with open(os.path.join(directory, "table_build.json")) as handle:
                metrics.update(json.load(handle))
            for params in ("TOY", "PAPER"):
                names = [f"ladder.{params}.{rung}" for rung in RUNGS]
                names.append(f"publisher_floor.{params}.table_build_ms")
                for name in names:
                    reads.setdefault(name + suffix, []).append(metrics[name])
    return reads


def test_publisher_floor_records(capsys, bench_writer, bench_runs):
    runs = bench_runs("publisher_floor")
    if not runs:
        pytest.skip("P3S_BENCH_RUNS holds no publisher_floor/ directory of parent/change runs")
    reads = _reads(runs)
    value = {name: statistics.median(samples) for name, samples in reads.items()}
    records = [BenchRecord(name, value[name], "ms", direction="lower") for name in sorted(value)]
    for suffix in (".parent", ""):
        encrypt = value["ladder.PAPER.hve.encrypt_ms" + suffix]
        single = value["ladder.PAPER.curve.fixed_base_mul_ms" + suffix]
        records.append(
            BenchRecord(
                RATIO + suffix,
                encrypt / (2 * VECTOR_BITS * single),
                "ratio",
                direction="lower",
                ceiling=None if suffix else RATIO_CEILING,
            )
        )
    with capsys.disabled():
        print()
        for record in records:
            print(f"  {record.name:58s} {record.value:9.3f} {record.unit}")

    for params in ("TOY", "PAPER"):  # ISSUE 20's acceptance, at record time
        encrypt = f"ladder.{params}.hve.encrypt_ms"
        assert value[encrypt] <= 0.75 * value[encrypt + ".parent"], (encrypt, value)
    assert records[-1].value <= RATIO_CEILING < records[-2].value

    bench_writer(
        "BENCH_pr20.json",
        suite="publisher_floor",
        seed=1,
        workload={
            "harness": "benchmarks/e2e/run.py --workload sim-paper --trace 1 --seed N "
            "(ladder rungs) and bench_publisher_floor.table_build_ms, parent and change "
            "alternating; value = median of a side's reads",
            "parent": "e93d9a6",
            "vector_bits": VECTOR_BITS,
            "reads": reads,
            "e2e_reads": e2e_reads(runs),
        },
        records=records,
    )


if __name__ == "__main__":
    print(json.dumps(table_build_ms()))
