"""Ablation: shared-final-exponentiation multi-pairing vs naive products —
``BENCH_pr40_multipairing.json``.

A pairing product ``Π ê(P_j, Q_j)`` evaluated naively pays one Miller loop
and one final exponentiation a pair; the multi-pairing shares the Miller
accumulator's squarings and pays one final exponentiation in all
(DESIGN.md §5).  Measured at ``PAPER`` at the pair counts the workloads
run: 2 for a one-attribute HVE match under the symbol encoding, 5 for a
two-leaf CP-ABE decryption.  One record a count, both under ``repro perf
gate --smoke``:

* ``multipairing.PAPER.shared_over_naive_{2,5}`` — the multi-pairing's
  time over the naive product's, medians of alternating reads: a ratio
  that does not depend on the machine (about 0.87 and 0.80; ceilings 0.95
  and 0.9 — a product that paid a final exponentiation a pair again
  reads about 1).

A record is the median of five reads.  The records are measured and their
ceilings asserted on every run; ``P3S_WRITE_BENCH=1`` writes the file.
"""

from __future__ import annotations

import json
import statistics
import time

from conftest import BenchRecord

from repro.crypto import randomness
from repro.crypto.group import PairingGroup
from repro.crypto.pairing import multi_pairing, tate_pairing

PAIR_COUNTS = (2, 5)  # a one-attribute HVE match; a two-leaf CP-ABE decryption
RATIO = "multipairing.PAPER.shared_over_naive_{}"
CEILING = {RATIO.format(2): 0.95, RATIO.format(5): 0.9}
SAMPLES = 7
READS = 5


def naive_product(group: PairingGroup, pairs):
    result = group.gt_identity()
    for p, q in pairs:
        result = result * tate_pairing(p, q)
    return result


@randomness.seeded(40)
def measure() -> dict[str, float]:
    """Both ratios, one read; the two evaluations are checked to agree."""
    group = PairingGroup("PAPER")
    out = {}
    for count in PAIR_COUNTS:
        pairs = [(group.random_g1(), group.random_g1()) for _ in range(count)]
        assert naive_product(group, pairs) == multi_pairing(pairs, group.params)
        naive, shared = [], []
        for _ in range(SAMPLES):
            start = time.perf_counter()
            naive_product(group, pairs)
            naive.append(time.perf_counter() - start)
            start = time.perf_counter()
            multi_pairing(pairs, group.params)
            shared.append(time.perf_counter() - start)
        out[RATIO.format(count)] = statistics.median(shared) / statistics.median(naive)
    return out


def test_multipairing_records(capsys, bench_writer):
    reads: dict[str, list[float]] = {}
    for _ in range(READS):
        for name, read in measure().items():
            reads.setdefault(name, []).append(read)
    value = {name: statistics.median(values) for name, values in reads.items()}
    records = [
        BenchRecord(name, value[name], "ratio", direction="lower", ceiling=CEILING[name])
        for name in sorted(value)
    ]
    with capsys.disabled():
        print()
        for record in records:
            print(f"  {record.name:50s} {record.value:9.3f} {record.unit}")

    assert all(value[name] <= ceiling for name, ceiling in CEILING.items()), value
    bench_writer(
        "BENCH_pr40_multipairing.json",
        suite="multipairing",
        seed=40,
        workload={
            "harness": "bench_ablation_multipairing.measure: PAPER, random G1 pairs; "
            f"{SAMPLES} naive products and multi-pairings alternating, ratio of medians; "
            f"value = median of {READS} reads",
            "pair_counts": list(PAIR_COUNTS),
            "reads": reads,
        },
        records=records,
    )


if __name__ == "__main__":
    print(json.dumps(measure()))
