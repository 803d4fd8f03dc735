"""The servers' PKE in GT: what one decryption and one encryption cost
against a G1 scalar multiplication, what a ciphertext carries, and what
the final exponentiation costs in ``F_q²`` products — ``BENCH_pr45.json``.

The KEM is trace Diffie-Hellman in GT (:mod:`repro.crypto.pke`).  A
decryption is two Lucas ladders over ``F_q``: one checks that the
ephemeral trace has order ``r``, one computes ``V_sk(t)``.  Before, it was
one variable-base G1 ladder.  Four records, all under ``repro perf gate
--smoke``:

* ``pke.PAPER.decrypt_over_scalar_mul`` — a ``PKEKeyPair.decrypt`` of a
  fresh ciphertext over one variable-base G1 multiplication (a base seen
  once: the windowed ladder the G1 KEM's decryption ran);
* ``pke.PAPER.encrypt_over_scalar_mul`` — a warm ``PKEPublicKey.encrypt``
  (the server key's comb table built) over the same;
* ``pke.TOY.ciphertext_overhead_bytes`` — ``pke_overhead`` at ``TOY``: an
  exact count, 20 bytes of trace plus the DEM's 44;
* ``ladder.PAPER.pairing.final_exp_over_fq2_mul`` — one
  ``final_exponentiation`` over one ``F_q²`` product.  It replaces
  ``BENCH_pr17.json``'s ``final_exp_over_miller_eval``, whose denominator
  the a.param curve made about 25 % cheaper; that record now sits in
  ``BENCH_pr17.json``'s ``workload.superseded``.

Every ratio is timed interleaved: each repetition times the operation and
its denominator back to back, so a change in the box's speed moves both,
and a read is the median of the repetitions' ratios.  A record is the
median of five reads.

``python benchmarks/bench_pke.py`` prints the four over whichever
``repro`` is on the path — how the parent's were read.
``$P3S_BENCH_RUNS/pke`` names a directory holding

* ``parent.json`` — ``{name: [reads]}`` of this file's output over the
  parent's ``src``;
* ``e2e/[<label>-]<workload>-<seed>.jsonl`` — one line per
  ``benchmarks/e2e/run.py --workload … --seed …`` run of the alternating
  pairs, ``{"side", "pair", "result": <the harness's last stdout line>}``
  (``unused-…``: seeds no earlier run used; ``more-…``: further pairs of
  a workload; ``aa-…``: "change" = a second copy of the parent, for the
  noise band; ``traced-…``: ``--trace 1``, for the per-layer attribution).

The records are measured and their ceilings asserted on every run;
``BENCH_pr45.json`` is written only with ``$P3S_BENCH_RUNS/pke`` and
``P3S_WRITE_BENCH=1``.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from conftest import BenchRecord, e2e_reads

DECRYPT = "pke.PAPER.decrypt_over_scalar_mul"
ENCRYPT = "pke.PAPER.encrypt_over_scalar_mul"
OVERHEAD = "pke.TOY.ciphertext_overhead_bytes"
FINAL_EXP = "ladder.PAPER.pairing.final_exp_over_fq2_mul"
CEILING = {DECRYPT: 0.45, ENCRYPT: 0.2, OVERHEAD: 64.0, FINAL_EXP: 340.0}
UNIT = {DECRYPT: "ratio", ENCRYPT: "ratio", OVERHEAD: "bytes", FINAL_EXP: "ratio"}
REPETITIONS = 15
MULS = 200
READS = 5


def _interleaved(operation, denominator) -> float:
    """Median over repetitions of ``operation``'s time over ``denominator``'s,
    each pair timed back to back."""
    ratios = []
    for _ in range(REPETITIONS):
        start = time.perf_counter()
        operation()
        middle = time.perf_counter()
        denominator()
        ratios.append((middle - start) / (time.perf_counter() - middle))
    return statistics.median(ratios)


def measure() -> dict[str, float]:
    """The four records over whichever ``repro`` is on the path."""
    from repro.crypto import randomness

    with randomness.seeded(45):
        return _measure()


def _measure() -> dict[str, float]:
    from repro.crypto import precompute
    from repro.crypto.group import PairingGroup
    from repro.crypto.pairing import final_exponentiation, miller_loop
    from repro.crypto.pke import PKEKeyPair, pke_overhead

    precompute.clear_caches()
    group = PairingGroup("PAPER")
    keys = PKEKeyPair(group)
    message = b"(K_s, certificate, predicate)" * 4
    for _ in range(4):  # the third use of the server key builds its table
        keys.public.encrypt(message)
    # a fresh ephemeral each, as every request carries: one seen thrice
    # would earn a comb table of its own
    sealed = iter([keys.public.encrypt(message) for _ in range(REPETITIONS)])
    # a base seen once never earns a comb table: the windowed ladder
    operands = iter([(group.random_g1(), group.random_zr()) for _ in range(2 * REPETITIONS)])

    def scalar_mul():
        base, scalar = next(operands)
        base * scalar

    decrypt = _interleaved(lambda: keys.decrypt(next(sealed)), scalar_mul)
    encrypt = _interleaved(lambda: keys.public.encrypt(message), scalar_mul)

    g = group.generator
    f = miller_loop(g * group.random_zr(), g * group.random_zr())
    a, b = group.random_gt(), group.random_gt()

    def products():
        for _ in range(MULS):
            a * b

    final_exp = _interleaved(lambda: final_exponentiation(f, group.params), products) * MULS
    precompute.clear_caches()
    return {
        DECRYPT: decrypt,
        ENCRYPT: encrypt,
        OVERHEAD: float(pke_overhead(PairingGroup("TOY"))),
        FINAL_EXP: final_exp,
    }


def test_pke_records(capsys, bench_writer, bench_runs):
    reads = {name: [] for name in CEILING}
    for _ in range(READS):
        for name, read in measure().items():
            reads[name].append(read)
    runs = bench_runs("pke")
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
        gained = (DECRYPT, ENCRYPT, OVERHEAD)  # the final exponentiation did not move
        assert all(value[name + ".parent"] > CEILING[name] for name in gained)
        bench_writer(
            "BENCH_pr45.json",
            suite="pke",
            seed=45,
            workload={
                "harness": f"bench_pke.measure: PAPER; per read, {REPETITIONS} repetitions each "
                "timing the operation and its denominator back to back, median of the ratios: "
                "a decrypt, or a warm encrypt, over one variable-base G1 multiplication of a "
                f"fresh base; one final_exponentiation over {MULS} F_q2 products (per product); "
                f"value = median of {READS} reads; .parent = the same file over the parent's src",
                "parent": "07e6c2d",
                "reads": reads,
                "e2e_reads": e2e_reads(runs),
            },
            records=records,
        )


if __name__ == "__main__":
    print(json.dumps(measure()))
