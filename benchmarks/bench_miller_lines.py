"""Monic Miller lines on r's signed digits: how many lines a precomputed
``PAPER`` point holds, what they weigh, and what one subscriber query
costs — ``BENCH_pr44.json`` (``BENCH_pr29.json`` holds the first
recording, on the generated ``PAPER`` whose random r drew 215 lines).

A precomputed line is the monic ``a + i``: two stored integers
``(λ, c)``, four multiplications.  The walk reads ``r``'s non-adjacent
form.  ``PAPER`` is PBC's ``a.param``, whose Solinas ``r = 2^159 + 2^107 +
1`` has two non-zero digits, so a walk draws 159 tangents and one chord:
160 lines.  Three records, all under ``repro perf gate --smoke``:

* ``miller_lines.PAPER.lines_per_pair`` — lines one ``precompute_miller``
  stores: an exact count (parent 215, ceiling 160);
* ``miller_lines.PAPER.line_kib_per_point`` — what ``tracemalloc`` sees
  eight line sets hold, per set (parent 65.4, ceiling 55);
* ``miller_lines.PAPER.query_over_fq2_mul`` — a warm 8-pair
  ``multi_pair_precomputed`` (one HVE query of the workloads: four
  positions, two pairings each) over one ``F_q²`` multiplication: a ratio
  that does not depend on the machine (parent ≈ 3000, ceiling 2650).
  Each repetition times one query and 1000 products back to back, so a
  change in the box's speed moves both; a read is the median of the
  repetitions' ratios.

``python benchmarks/bench_miller_lines.py`` prints the three over
whichever ``repro`` is on the path — how the parent's were read.  A record
is the median of five reads.  ``$P3S_BENCH_RUNS/miller_lines`` names a directory holding

* ``parent.json`` — ``{name: [reads]}`` of this file's output over the
  parent's ``src``;
* ``e2e/[<label>-]<workload>-<seed>.jsonl`` — one line per
  ``benchmarks/e2e/run.py --workload … --seed …`` run of the alternating
  pairs, ``{"side", "pair", "result": <the harness's last stdout line>}``
  (``traced-…``: ``--trace 1``, for the per-layer attribution).

The records are measured and their ceilings asserted on every run;
``BENCH_pr44.json`` is written only with ``$P3S_BENCH_RUNS/miller_lines`` and
``P3S_WRITE_BENCH=1``.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
import tracemalloc

from conftest import BenchRecord, e2e_reads

LINES = "miller_lines.PAPER.lines_per_pair"
KIB = "miller_lines.PAPER.line_kib_per_point"
RATIO = "miller_lines.PAPER.query_over_fq2_mul"
CEILING = {LINES: 160.0, KIB: 55.0, RATIO: 2650.0}
UNIT = {LINES: "count", KIB: "KiB", RATIO: "ratio"}
PAIRS = 8
QUERIES = 20
MULS = 1000
READS = 5


def measure() -> dict[str, float]:
    """The three records over whichever ``repro`` is on the path."""
    from repro.crypto import randomness

    with randomness.seeded(29):
        return _measure()


def _measure() -> dict[str, float]:
    from repro.crypto.group import PairingGroup

    group = PairingGroup("PAPER")
    points = [group.random_g1() for _ in range(2 * PAIRS)]
    group.precompute_pairing(points[0])  # anything a first walk builds once
    gc.collect()  # empties the free lists, whose reuse tracemalloc would not see
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    held = [group.precompute_pairing(point) for point in points[:PAIRS]]
    kib = (tracemalloc.get_traced_memory()[0] - before) / PAIRS / 1024
    tracemalloc.stop()
    # a step is its drawn lines (the parent's held a None where none was drawn)
    lines = sum(line is not None for step in held[0].steps for line in step)

    entries = list(zip(held, points[PAIRS:]))
    group.multi_pair_precomputed(entries)
    a, b = group.random_gt(), group.random_gt()
    ratios = []  # each query and its products back to back: box drift moves both
    for _ in range(QUERIES):
        start = time.perf_counter()
        group.multi_pair_precomputed(entries)
        middle = time.perf_counter()
        for _ in range(MULS):
            a * b
        ratios.append((middle - start) / (time.perf_counter() - middle) * MULS)
    return {LINES: float(lines), KIB: kib, RATIO: statistics.median(ratios)}


def test_miller_lines_records(capsys, bench_writer, bench_runs):
    reads = {name: [] for name in CEILING}
    for _ in range(READS):
        for name, read in measure().items():
            reads[name].append(read)
    runs = bench_runs("miller_lines")
    if runs:
        with open(os.path.join(runs, "parent.json")) as handle:  # {name: [its reads]}
            reads.update({name + ".parent": values for name, values in json.load(handle).items()})
    value = {name: statistics.median(values) for name, values in reads.items()}
    records = [
        BenchRecord(
            name,
            value[name],
            UNIT[name.split(".parent")[0]],
            direction="lower",
            ceiling=CEILING.get(name),
        )
        for name in sorted(value)
    ]
    with capsys.disabled():
        print()
        for record in records:
            print(f"  {record.name:58s} {record.value:9.3f} {record.unit}")

    assert all(value[name] <= ceiling for name, ceiling in CEILING.items())
    if runs:
        assert all(value[name + ".parent"] > ceiling for name, ceiling in CEILING.items())
        bench_writer(
            "BENCH_pr44.json",
            suite="miller_lines",
            seed=29,
            workload={
                "harness": f"bench_miller_lines.measure: PAPER, {PAIRS} line sets under tracemalloc; "
                f"{QUERIES} warm {PAIRS}-pair multi_pair_precomputed, each timed back to back with "
                f"{MULS} F_q2 products, median of the ratios; value = median of {READS} reads; "
                ".parent = the same file over the "
                "parent's src, whose PAPER drew a random 160-bit r",
                "parent": "3c92083",
                "pairs": PAIRS,
                "reads": reads,
                "e2e_reads": e2e_reads(runs),
            },
            records=records,
        )


if __name__ == "__main__":
    print(json.dumps(measure()))
