"""A comb table fills in as scalars ask for it: what a key base's first
multiplication costs, and what its whole table costs — ``BENCH_pr40.json``.

A key base earns its comb table on its first use.  A table built whole up
front costs about three ladders, so that first multiplication cost about
three; a table that starts as its base's doubling chain and fills any
other entry the first time a digit selects it costs about one and a half.
Each record is a ratio to one variable-base ladder (``scalar_mul_windowed``,
4-bit window) of the same base and scalar, timed alternately, so it does
not depend on the machine:

* ``comb.{TOY,PAPER}.first_use_over_ladder`` — a fresh key base's first
  multiplication through a key ``TableCache`` (the table's construction,
  the entries its digits select, the Jacobian walk); ``PAPER`` ceiling
  2.0 (the whole table up front: ≈ 3);
* ``comb.PAPER.full_fill_over_ladder`` — the whole table, built by the
  fill: a key cache's batch of the 16 scalars ``Σ_j d·32^j`` (every entry
  a scalar in range selects) on a fresh base, less the same batch on the
  now-whole table; ceiling :data:`FULL_CEILING`, the parent's whole-table
  build × 1.1, so the steady state cannot quietly get dearer.

``python benchmarks/bench_comb_first_use.py`` prints one read over
whichever ``repro`` is on the path — how the parent's were read.  A record
is the median of five reads; ``<name>.parent`` is the parent's.
``$P3S_BENCH_RUNS/comb_first_use`` names a directory holding

* ``parent.json`` — ``{name: [reads]}`` of this file's output over the
  parent's ``src``;
* ``replay-parent.json`` and ``replay-change.json`` —
  ``{"<workload>-2012": bench_hve_alphabet.replay(workload, 2012)}`` for
  the four workloads, over each side's ``src``;
* ``e2e/[<label>-]<workload>-<seed>.jsonl`` — one line per untraced
  ``benchmarks/e2e/run.py --workload … --trace 0 --seed …`` run of the
  alternating pairs, ``{"side", "pair", "result": <the harness's last
  stdout line>}``.  Unprefixed files are this change; ``unused-…`` is a
  seed not used while it was written, ``lowshare-…`` a seed whose latency
  phase meets few new key bases, and ``repeat-…`` a second set of runs.
  The other prefixes are versions measured on the way: ``early-…``
  (entries 11 and 13 as three-term sums); ``rounds-…`` (fill rounds of
  their own before the walk; shared tables filled lazily too);
  ``policy-…`` (against ``rounds``, two more sides that fill a table
  whole on its second or third use); ``nowarm-…`` (the fill inside the
  walk, shared tables lazy); ``warmonly-…`` (as ``nowarm``, but the
  explicit warm-up fills whole; side ``shared-lazy`` of the three-way
  ``sharedlazy-…``); ``jacobian-pairs-…`` (the doubling chain left
  Jacobian until a walk reads it; side ``jacobian`` of ``jacobian-…``).

The records are measured and their ceilings asserted on every run;
``BENCH_pr40.json`` is written only with ``$P3S_BENCH_RUNS/comb_first_use``
and ``P3S_WRITE_BENCH=1``.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from conftest import BenchRecord, e2e_reads

from repro.crypto.comb import ROW, WINDOW, TableCache
from repro.crypto.curve import mul_many
from repro.crypto import randomness
from repro.crypto.group import PairingGroup

FIRST = "comb.{}.first_use_over_ladder"
FULL = "comb.PAPER.full_fill_over_ladder"
FIRST_CEILING = 2.0
FULL_CEILING = 3.23  # the parent's whole-table build (2.93 ladders) × 1.1
SAMPLES = 9
READS = 5


def fill_scalars(group: PairingGroup) -> list[int]:
    """The 16 scalars ``Σ_j d·32^j``, one a digit ``d``, over every row of a
    comb table but the top one (only a carry reaches it, with digit 1):
    together they select every entry a scalar in range can."""
    rows = (group.order.bit_length() + WINDOW) // WINDOW + 1
    return [sum(d << (WINDOW * j) for j in range(rows - 1)) for d in range(1, ROW + 1)]


def whole_table_s(base, scalars: list[int]) -> float:
    """``base``'s whole comb table, built by the fill: a fresh key cache's
    batch of ``scalars`` on it, less the same batch on the now-whole table."""
    owner = TableCache(1, 1, promote_after=0)
    pairs = [(base, k) for k in scalars]
    start = time.perf_counter()
    mul_many(pairs, owner)
    middle = time.perf_counter()
    mul_many(pairs, owner)
    return 2 * middle - start - time.perf_counter()


@randomness.seeded(40)
def measure() -> dict[str, float]:
    """The three records, one read: medians of :data:`SAMPLES` fresh bases,
    first use and ladder alternating."""
    out = {}
    for name in ("TOY", "PAPER"):
        group = PairingGroup(name)
        first, whole, ladder = [], [], []
        for _ in range(SAMPLES):
            base, k = group.generator * group.random_zr(), group.random_zr()
            owner = TableCache(1, 1, promote_after=0)  # a key's: its bases' first use builds
            start = time.perf_counter()
            owner.lookup(base, k.bit_length()).mul(k)
            first.append(time.perf_counter() - start)
            start = time.perf_counter()
            base.scalar_mul_windowed(k, 4)
            ladder.append(time.perf_counter() - start)
            if name == "PAPER":
                fresh = group.generator * group.random_zr()
                whole.append(whole_table_s(fresh, fill_scalars(group)))
        out[FIRST.format(name)] = statistics.median(first) / statistics.median(ladder)
        if whole:
            out[FULL] = statistics.median(whole) / statistics.median(ladder)
    return out


def test_comb_first_use_records(capsys, bench_writer, bench_runs):
    reads: dict[str, list[float]] = {}
    for _ in range(READS):
        for name, read in measure().items():
            reads.setdefault(name, []).append(read)
    runs = bench_runs("comb_first_use")
    if runs:
        with open(os.path.join(runs, "parent.json")) as handle:  # {name: [its reads]}
            reads.update({name + ".parent": values for name, values in json.load(handle).items()})
    value = {name: statistics.median(values) for name, values in reads.items()}
    ceiling = {FIRST.format("PAPER"): FIRST_CEILING, FULL: FULL_CEILING}
    records = [
        BenchRecord(name, value[name], "ratio", direction="lower", ceiling=ceiling.get(name))
        for name in sorted(value)
    ]
    with capsys.disabled():
        print()
        for record in records:
            print(f"  {record.name:50s} {record.value:9.3f} {record.unit}")

    assert all(value[name] <= bound for name, bound in ceiling.items()), value
    if runs:
        assert value[FIRST.format("PAPER") + ".parent"] > FIRST_CEILING
        assert abs(FULL_CEILING - 1.1 * value[FULL + ".parent"]) < 0.01
        replay = {}
        for side in ("parent", "change"):
            with open(os.path.join(runs, f"replay-{side}.json")) as handle:
                replay[side] = json.load(handle)
        bench_writer(
            "BENCH_pr40.json",
            suite="comb_first_use",
            seed=40,
            workload={
                "harness": "bench_comb_first_use.measure: per parameter set "
                f"{SAMPLES} fresh bases, first use through a key TableCache and one "
                "scalar_mul_windowed alternating, ratio of medians; value = median of "
                f"{READS} reads; .parent = the same file over the parent's src",
                "parent": "b977430",
                "reads": reads,
                "replay": replay,
                "e2e_reads": e2e_reads(runs),
            },
            records=records,
        )


if __name__ == "__main__":
    print(json.dumps(measure()))
