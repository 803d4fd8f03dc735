"""The generator's comb window: how wide ``g``'s table pays — ``BENCH_pr58.json``.

Every multiplication of the generator ``g`` — both of a token mint's
(paper §4.3, Fig. 3), ``HVE.setup``'s 2·Σ|Σ_i| (320 on ``default_schema()``),
CP-ABE setup, keygen and policy leaves, Schnorr signing and verification —
walks ``g``'s comb table, one addition a non-zero signed digit.  That table
is built whole once a process (``PairingGroup``), so its window ``w`` trades
a build of ``(max_bits // w + 1) · 2^(w−1)`` entries against
``max_bits // w + 1`` additions a multiplication.  This bench is where
``repro.crypto.comb.GENERATOR_WINDOW`` comes from.

The sweep sets ``GENERATOR_WINDOW[set]`` to each window 5–9 at ``TOY`` and
``PAPER`` in turn, interleaved repetition by repetition (the order reverses
every repetition), and reads process time:

* ``build_ms`` — ``fixed_base_table(g)`` after ``precompute.clear_caches()``:
  the doubling chain and the whole-table fill;
* ``g_mul_ms`` — one ``g · k``, ``k`` uniform below ``r``, over ``MULS``;
* ``hve_setup_ms`` — one ``HVE.setup(default_schema().alphabet_sizes)``;
* ``mint_ms`` — one mint as ``TokenIssuer.mint`` makes it (``gen_token`` for
  a one-attribute interest, then ``serialize_hve_token``), over ``MINTS``.

Each is a median over ``REPETITIONS``.  A window qualifies when its
build's extra time over window 5's is repaid by the one ``HVE.setup`` it
speeds (``build_ms + hve_setup_ms`` no more than window 5's: a process that
builds the table and sets up an ARA pays no more than at window 5).  A
set's window is the qualifying one with the fastest mint.

Records, in ``BENCH_pr58.json`` (suite ``generator_comb``):

* ``generator_comb.{TOY,PAPER}.w<w>.{build,g_mul,hve_setup,mint}_ms`` —
  the sweep, reported;
* ``generator_comb.{TOY,PAPER}.window`` — each set's chosen window,
  reported; ``tests/perf/test_counted_records.py`` holds
  ``GENERATOR_WINDOW`` to them;
* ``generator_comb.{TOY,PAPER}.adds_per_g1_exp`` — affine additions
  (``jacobian.add_affine`` calls) a ``g · k`` makes on the set's table,
  over ``COUNTED`` scalars from ``random.Random(SEED)``: an exact count,
  ceiling the table's row count (window 5 at ``PAPER``: 34 rows).
  ``workload.parent`` holds the same at window 5;
  ``tests/perf/test_counted_records.py`` recomputes both;
* ``generator_comb.PAPER.mint_over_window5`` — per repetition the mint at
  ``PAPER``'s window over the mint at window 5, the median: ceiling
  ``MINT_CEILING``, the committed reading plus a margin.

``$P3S_BENCH_RUNS/generator_comb`` names a directory holding
``e2e/[<label>-]<workload>-<seed>.jsonl`` — one line per untraced
``benchmarks/e2e/run.py --workload … --trace 0 --seed …`` run of the
alternating parent/change pairs, ``{"side", "pair", "result": <the
harness's last stdout line>}``; ``unused-…`` is a seed not used while the
change was written.  They go into ``workload.e2e_reads``.

The sweep takes about half a minute on a 2-vCPU box.  The records are
measured and their ceilings asserted on every run; ``P3S_WRITE_BENCH=1``
writes ``BENCH_pr58.json``.  ``python benchmarks/bench_generator_comb.py``
prints the counts.
"""

from __future__ import annotations

import contextlib
import json
import random
import statistics
import time

from repro.core.config import default_schema
from repro.crypto import comb, curve, precompute
from repro.crypto.curve import FixedBaseTable, Point, fixed_base_table
from repro.crypto.group import PairingGroup
from repro.crypto.params import PARAM_SETS
from repro.pbe.hve import HVE
from repro.pbe.schema import Interest
from repro.pbe.serialize import serialize_hve_token
from repro.perf.bench import BenchRecord

SETS = ("TOY", "PAPER")
WINDOWS = range(5, 10)
REPETITIONS = 15
MULS = 16
MINTS = 16
COUNTED = 64
SEED = 58
INTEREST = Interest({"attr00": "v03"})
ADDS = "generator_comb.{}.adds_per_g1_exp"
CHOSEN = "generator_comb.{}.window"
MINT_RATIO = "generator_comb.PAPER.mint_over_window5"
MINT_CEILING = 0.85
ARMS = ("build_ms", "g_mul_ms", "hve_setup_ms", "mint_ms")


@contextlib.contextmanager
def generator_window(name: str, window: int):
    """``GENERATOR_WINDOW[name] = window`` for the block, on fresh caches."""
    saved = comb.GENERATOR_WINDOW[name]
    comb.GENERATOR_WINDOW[name] = window
    precompute.clear_caches()
    try:
        yield
    finally:
        comb.GENERATOR_WINDOW[name] = saved
        precompute.clear_caches()


def adds_per_g1_exp(table: FixedBaseTable) -> float:
    """Affine additions a ``g · k`` makes on ``table``, over :data:`COUNTED`
    scalars below ``r``."""
    draw = random.Random(SEED)
    ks = [draw.randrange(table.base.params.r) for _ in range(COUNTED)]
    adds, real = [0], curve.add_affine

    def counted(*args):
        adds[0] += 1
        return real(*args)

    curve.add_affine = counted
    try:
        for k in ks:
            table.mul(k)
    finally:
        curve.add_affine = real
    return adds[0] / COUNTED


def counts() -> tuple[dict[str, float], dict[str, float]]:
    """``adds_per_g1_exp`` on each set's generator table, and the same on a
    window-5 table (the parent's)."""
    records, parent = {}, {}
    for name in SETS:
        params = PARAM_SETS[name]
        g = Point.generator(params)
        table = g.comb_table()
        table.fill()
        records[ADDS.format(name)] = adds_per_g1_exp(table)
        parent[ADDS.format(name)] = adds_per_g1_exp(FixedBaseTable(g, table.max_bits))
    return records, parent


def ms(call, times: int = 1) -> float:
    start = time.process_time()
    for _ in range(times):
        call()
    return (time.process_time() - start) * 1e3 / times


def read(name: str, window: int, hve: HVE, master, interest: list) -> dict[str, float]:
    """One repetition's four reads at ``window``."""
    group = hve.group
    g = group.generator
    draw = random.Random()
    with generator_window(name, window):
        build = ms(lambda: fixed_base_table(g))
        assert fixed_base_table(g).window == window
        ks = [draw.randrange(group.order) for _ in range(MULS)]
        g_mul = ms(lambda: [g * k for k in ks]) / MULS
        setup = ms(lambda: hve.setup(default_schema().alphabet_sizes))
        mint = ms(lambda: serialize_hve_token(group, hve.gen_token(master, interest)), MINTS)
    return dict(zip(ARMS, (build, g_mul, setup, mint)))


def sweep(name: str) -> dict:
    """Every window's reads at ``name``, interleaved repetition by repetition."""
    group = PairingGroup(name)
    hve = HVE(group)
    _, master = hve.setup(default_schema().alphabet_sizes)
    interest = default_schema().encode_interest(INTEREST)
    reads = {w: {arm: [] for arm in ARMS} for w in WINDOWS}
    for index in range(REPETITIONS):
        for window in WINDOWS if index % 2 == 0 else reversed(WINDOWS):
            for arm, value in read(name, window, hve, master, interest).items():
                reads[window][arm].append(value)
    medians = {w: {arm: statistics.median(values) for arm, values in arms.items()}
               for w, arms in reads.items()}  # fmt: skip
    one_off = {w: medians[w]["build_ms"] + medians[w]["hve_setup_ms"] for w in WINDOWS}
    qualifying = [w for w in WINDOWS if one_off[w] <= one_off[5]]  # window 5 always
    chosen = min(qualifying, key=lambda w: medians[w]["mint_ms"])
    return {"reads": reads, "medians": medians, "chosen": chosen}


def test_generator_comb_records(capsys, bench_writer, bench_runs):
    # benchmarks/conftest.py, imported here: tier-1 loads this file for counts()
    from conftest import e2e_reads

    swept = {name: sweep(name) for name in SETS}
    adds, parent = counts()
    paper = swept["PAPER"]
    chosen = paper["chosen"]
    ratios = [
        current / at_5
        for current, at_5 in zip(paper["reads"][chosen]["mint_ms"], paper["reads"][5]["mint_ms"])
    ]
    mint_ratio = statistics.median(ratios)
    records = []
    for name in SETS:
        for window, medians in swept[name]["medians"].items():
            for arm in ARMS:
                records.append(BenchRecord(
                    f"generator_comb.{name}.w{window}.{arm}", medians[arm], "ms", direction="lower"
                ))  # fmt: skip
        records.append(BenchRecord(CHOSEN.format(name), swept[name]["chosen"], "count",
                                   direction="higher"))  # fmt: skip
        bits = PARAM_SETS[name].r.bit_length() + comb.WINDOW  # the table's max_bits
        rows = bits // comb.GENERATOR_WINDOW[name] + 1
        records.append(BenchRecord(ADDS.format(name), adds[ADDS.format(name)], "count",
                                   direction="lower", ceiling=float(rows)))  # fmt: skip
    records.append(BenchRecord(MINT_RATIO, mint_ratio, "ratio", direction="lower",
                               ceiling=MINT_CEILING))  # fmt: skip
    with capsys.disabled():
        print()
        for name in SETS:
            print(f"  {name}: window {swept[name]['chosen']} "
                  f"(GENERATOR_WINDOW {comb.GENERATOR_WINDOW[name]})")  # fmt: skip
            for window, medians in swept[name]["medians"].items():
                print(f"    w{window} " + "  ".join(f"{arm} {medians[arm]:8.3f}" for arm in ARMS))
            print(f"    adds_per_g1_exp {adds[ADDS.format(name)]:.3f} "
                  f"(window 5: {parent[ADDS.format(name)]:.3f})")  # fmt: skip
        q1, _, q3 = statistics.quantiles(ratios, n=4)
        print(f"  PAPER mint over window 5: {mint_ratio:.3f} (quartiles {q1:.3f}-{q3:.3f})")
    for record in records:
        assert record.ceiling is None or record.value <= record.ceiling, record
    runs = bench_runs("generator_comb")
    bench_writer(
        "BENCH_pr58.json",
        suite="generator_comb",
        seed=SEED,
        workload={
            "harness": (
                "bench_generator_comb.sweep: GENERATOR_WINDOW[set] = 5..9 in turn at TOY and "
                f"PAPER, {REPETITIONS} repetitions interleaved (order reversed every other one), "
                "process time; build = fixed_base_table(g) after clear_caches; g_mul = g * k "
                f"over {MULS} k below r; hve_setup = HVE.setup(default_schema()); mint = "
                f"serialize_hve_token(gen_token(one-attribute interest)) over {MINTS}; values are "
                "medians; window = of those whose build_ms + hve_setup_ms is at most window 5's, "
                "the one with the fastest mint; adds_per_g1_exp = jacobian.add_affine calls "
                f"per g * k on the set's table, {COUNTED} scalars from random.Random({SEED}); "
                "parent = the same at window 5"
            ),
            "parent": parent,
            "sweep": {name: swept[name]["reads"] for name in SETS},
            "mint_ratios": ratios,
            **({"e2e_reads": e2e_reads(runs)} if runs else {}),
        },
        records=records,
    )


if __name__ == "__main__":
    print(json.dumps(counts()))
