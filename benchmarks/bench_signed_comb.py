"""Signed-digit combs in G1 and GT: how many lock-step steps one warm
``HVE.encrypt`` walks, and what one GT power costs — ``BENCH_pr28.json``.

A comb table used to hold unsigned 4-bit digits: 15 entries a row, one
addition a window, 40 windows for a 160-bit ``PAPER`` scalar.  Signed
radix-32 digits ``d ∈ [−15, 16]`` read the same 16-entry rows (a negative
digit is a negated point), 33 digits at most; and the three fixed GT bases
of the publish path, raised by square-and-multiply, get the same comb (a
negative digit is a conjugated element).  Two records, both under
``repro perf gate --smoke``:

* ``signed_comb.PAPER.steps_per_encrypt`` — ``jacobian.add_many`` calls,
  each one lock-step step of all 2n = 80 accumulators sharing one
  inversion, in one warm n = 40 encryption, counted by wrapping
  ``curve.add_many``: an exact count (parent 40, ceiling 33);
* ``signed_comb.PAPER.gt_exp_over_fq2_mul`` — a warm GT exponentiation by a
  fresh exponent below ``r`` over one ``F_q²`` multiplication:
  machine-independent (square-and-multiply pays ~160 squarings and ~80
  multiplications; ceiling 120).  Each repetition times one power and
  1000 products back to back, so a change in the box's speed moves both;
  a read is the median of the repetitions' ratios.

``python benchmarks/bench_signed_comb.py`` prints both over whichever
``repro`` is on the path — how the parent's were read.  A record is the
median of five reads.  ``$P3S_BENCH_RUNS/signed_comb`` names a directory holding

* ``parent.json`` — ``{name: [reads]}`` of this file's output over the
  parent's ``src``;
* ``e2e/[<label>-]<workload>-<seed>.jsonl`` — one line per untraced
  ``benchmarks/e2e/run.py --workload … --trace 0 --seed …`` run of the
  alternating pairs, ``{"side", "pair", "result": <the harness's last
  stdout line>}`` (``g1only-…``: "change" = a copy of the tree with the
  GT comb switched off, to size the GT half alone; ``again-…``: the same
  pairs re-run alone on the box, after a first set shared it with
  another run).

The records are measured and their ceilings asserted on every run;
``BENCH_pr28.json`` is written only with ``$P3S_BENCH_RUNS/signed_comb`` and
``P3S_WRITE_BENCH=1``.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from conftest import BenchRecord, e2e_reads

STEPS = "signed_comb.PAPER.steps_per_encrypt"
RATIO = "signed_comb.PAPER.gt_exp_over_fq2_mul"
CEILING = {STEPS: 33.0, RATIO: 120.0}
VECTOR_BITS = 40  # default_schema() under the bit encoding: 2n = 80 multiplications an encryption
POWERS = 100
MULS = 1000
READS = 5


def measure() -> dict[str, float]:
    """Both records over whichever ``repro`` is on the path."""
    from repro.crypto import randomness

    with randomness.seeded(28):
        return _measure()


def _measure() -> dict[str, float]:
    from repro.crypto import curve, precompute
    from repro.crypto.group import PairingGroup
    from repro.pbe.hve import HVE

    precompute.clear_caches()
    group = PairingGroup("PAPER")
    hve = HVE(group)
    public, _ = hve.setup(VECTOR_BITS)
    x = [i % 2 for i in range(VECTOR_BITS)]
    for _ in range(3):  # every base in use through the use that builds its table
        hve.encrypt(public, x, b"warm-up")
    steps, add_many = [], curve.add_many
    curve.add_many = lambda *args: steps.append(None) or add_many(*args)
    try:
        hve.encrypt(public, x, b"guid-0123456789a")
    finally:
        curve.add_many = add_many

    base = public.y_gt  # warm since those encryptions, as Y is on every publisher
    a, b = group.gt_generator, base
    ratios = []  # each power and its products back to back: box drift moves both
    for exponent in [group.random_zr() for _ in range(POWERS)]:
        start = time.perf_counter()
        base**exponent
        middle = time.perf_counter()
        for _ in range(MULS):
            a * b
        ratios.append((middle - start) / (time.perf_counter() - middle) * MULS)
    precompute.clear_caches()
    return {STEPS: float(len(steps)), RATIO: statistics.median(ratios)}


def test_signed_comb_records(capsys, bench_writer, bench_runs):
    reads = {name: [] for name in (STEPS, RATIO)}
    for _ in range(READS):
        for name, read in measure().items():
            reads[name].append(read)
    runs = bench_runs("signed_comb")
    if runs:
        with open(os.path.join(runs, "parent.json")) as handle:  # {name: [its reads]}
            reads.update({name + ".parent": values for name, values in json.load(handle).items()})
    value = {name: statistics.median(values) for name, values in reads.items()}
    records = [
        BenchRecord(
            name,
            value[name],
            "count" if name.startswith(STEPS) else "ratio",
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
            "BENCH_pr28.json",
            suite="signed_comb",
            seed=28,
            workload={
                "harness": "bench_signed_comb.measure: PAPER, n = 40, one warm encryption "
                "counted through a wrapped curve.add_many; Y to "
                f"{POWERS} fresh exponents below r, each timed back to back with {MULS} F_q2 "
                "products, median of the ratios; "
                f"value = median of {READS} reads; .parent = the same file over the parent's src",
                "parent": "018cb77",
                "vector_bits": VECTOR_BITS,
                "reads": reads,
                "e2e_reads": e2e_reads(runs),
            },
            records=records,
        )


if __name__ == "__main__":
    print(json.dumps(measure()))
