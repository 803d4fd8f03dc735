"""PR 24, a key owns its comb tables: what uniformly random attribute
vectors cost ``HVE.encrypt`` beside one repeated vector — ``BENCH_pr24.json``.

An n = 40 HVE public key has 4n = 160 fixed bases; the process-global comb
cache holds 128 tables.  While the key's bases lived there, a publisher
whose metadata varied over every attribute evicted and rebuilt about five
tables an encryption and ran three times slower than one that repeated a
vector; with the tables on the key the two cost the same.  Two records,
both under ``repro perf gate --smoke``:

* ``key_tables.TOY.builds_per_encrypt_varying`` — ``FixedBaseTable``
  constructions (each an ``op.g1_exp.fb_build``) per encryption over 200
  seeded random vectors, every base already past its third use: an exact
  count (parent 5.83, ceiling 0);
* ``key_tables.TOY.encrypt_varying_over_constant`` — the time of those
  encryptions over the time of as many of one vector, in alternating
  blocks, median block ratio: machine-independent (parent 2.7, ceiling
  1.15).

``python benchmarks/bench_key_tables.py`` prints both over whichever
``repro`` is on the path — how the parent's were read.  A record is the
median of five reads.  The end-to-end evidence rides in
``workload.e2e_reads`` in the PR 20 shape
(``conftest.e2e_reads``).  ``$P3S_BENCH_RUNS/key_tables`` names a
directory holding

* ``parent.json`` — ``{name: [reads]}`` of this file's output over the
  parent's ``src``;
* ``e2e/[<label>-]<workload>-<seed>.jsonl`` — one line per untraced
  ``benchmarks/e2e/run.py --workload … --trace 0 --seed …`` run of the
  alternating pairs, ``{"side", "pair", "result": <the harness's last
  stdout line>}`` (``workers-…``: ROADMAP 5(a), "parent" = this tree with
  the yardstick's two match workers, "change" = a scratch copy of
  ``workloads.py`` with ``match_workers = 0``).

The records are measured and their ceilings asserted on every run;
``BENCH_pr24.json`` is written only with ``$P3S_BENCH_RUNS/key_tables`` and
``P3S_WRITE_BENCH=1``.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time

from conftest import BenchRecord, e2e_reads

BUILDS = "key_tables.TOY.builds_per_encrypt_varying"
RATIO = "key_tables.TOY.encrypt_varying_over_constant"
RATIO_CEILING = 1.15
VECTOR_BITS = 40  # default_schema() under the bit encoding: 4n = 160 bases, 2n = 80 in use at once
ENCRYPTIONS = 200
BLOCK = 20
READS = 5


def measure() -> dict[str, float]:
    """Both records over whichever ``repro`` is on the path."""
    from repro.crypto import precompute
    from repro.crypto.curve import FixedBaseTable
    from repro.crypto.group import PairingGroup
    from repro.pbe.hve import HVE

    precompute.clear_caches()
    hve = HVE(PairingGroup("TOY"))
    public, _ = hve.setup(VECTOR_BITS)
    for bit in (0, 1):
        for _ in range(3):  # every base through the use that builds its table
            hve.encrypt(public, [bit] * VECTOR_BITS, b"warm-up")
    rng = random.Random(24)
    varying = [[rng.randrange(2) for _ in range(VECTOR_BITS)] for _ in range(ENCRYPTIONS)]
    constant = [varying[0]] * ENCRYPTIONS

    def block_s(vectors) -> float:
        start = time.perf_counter()
        for x in vectors:
            hve.encrypt(public, x, b"guid-0123456789a")
        return time.perf_counter() - start

    ratios = []
    for at in range(0, ENCRYPTIONS, BLOCK):
        ratios.append(block_s(varying[at : at + BLOCK]) / block_s(constant[at : at + BLOCK]))
    builds, build = [], FixedBaseTable.__init__
    FixedBaseTable.__init__ = lambda self, *args: builds.append(None) or build(self, *args)
    try:
        block_s(varying)
    finally:
        FixedBaseTable.__init__ = build
    precompute.clear_caches()
    return {BUILDS: len(builds) / ENCRYPTIONS, RATIO: statistics.median(ratios)}


def test_key_tables_records(capsys, bench_writer, bench_runs):
    reads = {name: [] for name in (BUILDS, RATIO)}
    for _ in range(READS):
        for name, read in measure().items():
            reads[name].append(read)
    runs = bench_runs("key_tables")
    if runs:
        with open(os.path.join(runs, "parent.json")) as handle:  # {name: [its reads]}
            reads.update({name + ".parent": values for name, values in json.load(handle).items()})
    value = {name: statistics.median(values) for name, values in reads.items()}
    ceiling = {BUILDS: 0.0, RATIO: RATIO_CEILING}
    records = [
        BenchRecord(
            name,
            value[name],
            "count" if name.startswith(BUILDS) else "ratio",
            direction="lower",
            ceiling=ceiling.get(name),
        )
        for name in sorted(value)
    ]
    with capsys.disabled():
        print()
        for record in records:
            print(f"  {record.name:58s} {record.value:9.3f} {record.unit}")

    assert max(reads[BUILDS]) == 0 and value[RATIO] <= RATIO_CEILING
    if runs:
        assert min(reads[BUILDS + ".parent"]) > 1 and value[RATIO + ".parent"] > RATIO_CEILING
        bench_writer(
            "BENCH_pr24.json",
            suite="key_tables",
            seed=24,
            workload={
                "harness": "bench_key_tables.measure: TOY, n = 40, every base warm, "
                f"{ENCRYPTIONS} seeded uniformly random vectors against one repeated vector "
                f"in alternating blocks of {BLOCK}; value = median of {READS} reads; "
                ".parent = the same file over the parent's src",
                "parent": "342982e",
                "vector_bits": VECTOR_BITS,
                "reads": reads,
                "e2e_reads": e2e_reads(runs),
            },
            records=records,
        )


if __name__ == "__main__":
    print(json.dumps(measure()))
