"""What a served client holds: comb-table entry bytes and the ciphertexts a
subscriber's ``HVE`` keeps after matching — ``BENCH_pr57.json``.

Paper §4.3: every subscriber matches every DS broadcast locally, and §7's
operating point is N_s = 100 subscribers, so what one client keeps per
key and per publication is what a growing population pays.  Two
containers held memory that saved no time:

* a G1 comb entry (``repro.crypto.curve.FixedBaseTable``) was a tuple of
  two ints; it is one int, ``x << |q| | y``;
* ``HVE`` memoised up to 256 (token, ciphertext) results, which no served
  path ever hit; it keeps nothing now.

Records, in ``BENCH_pr57.json`` (suite ``served_memory``), exact under any
seed:

* ``served_memory.{TOY,PAPER}.comb_entry_bytes`` — ``sys.getsizeof`` of
  the largest entry of the generator's whole comb table; ceiling at this
  tree's value.  ``workload.parent`` has the same entries as the tuples
  of two ints the parent stored (152 and 248);
* ``served_memory.TOY.ciphertexts_held_after_64_queries`` — of 64 fresh
  ciphertexts, each queried by a matching and a missing token, how many
  stay alive once the caller drops them (weak references): ceiling 0,
  where the memo kept all 64.
  ``tests/perf/test_counted_records.py`` recomputes all three on every
  tier-1 run.

``$P3S_BENCH_RUNS/served_memory`` names a directory holding
``e2e/[<label>-]<workload>-<seed>.jsonl`` — one line per untraced
``benchmarks/e2e/run.py --workload … --trace 0 --seed …`` run of the
alternating parent/change pairs, ``{"side", "pair", "result": <the
harness's last stdout line>}``; ``unused-…`` is a seed not used while
the change was written, ``repeat-…`` a second set of runs.  They go into
``workload.e2e_reads``.

The records are measured and their ceilings asserted on every run;
``BENCH_pr57.json`` is written only with ``$P3S_BENCH_RUNS/served_memory``
and ``P3S_WRITE_BENCH=1``.  ``python benchmarks/bench_served_memory.py``
prints the records.
"""

from __future__ import annotations

import gc
import json
import sys
import weakref

from repro.crypto import randomness
from repro.crypto.curve import Point
from repro.crypto.group import PairingGroup
from repro.crypto.params import PAPER, TOY
from repro.pbe.hve import HVE

ENTRY = "served_memory.{}.comb_entry_bytes"
HELD = "served_memory.TOY.ciphertexts_held_after_64_queries"
CIPHERTEXTS = 64
SEED = 57
CEILINGS = {ENTRY.format("TOY"): 68.0, ENTRY.format("PAPER"): 164.0, HELD: 0.0}


def entry_bytes(params) -> tuple[int, int]:
    """The largest entry of the generator's whole comb table: its bytes,
    and the bytes of the same point as a tuple of two ints."""
    table = Point.generator(params).comb_table()
    table.fill()
    shift = params.q.bit_length()
    packed = [entry for row in table.rows for entry in row if entry is not None]
    as_tuples = ((entry >> shift, entry & ((1 << shift) - 1)) for entry in packed)
    return (
        max(map(sys.getsizeof, packed)),
        max(sys.getsizeof(pair) + sum(map(sys.getsizeof, pair)) for pair in as_tuples),
    )


@randomness.seeded(SEED)
def ciphertexts_held() -> int:
    """Of :data:`CIPHERTEXTS` fresh ciphertexts that a subscriber's ``HVE``
    matched with one token and missed with another, how many outlive
    the caller's last reference."""
    hve = HVE(PairingGroup("TOY"))
    public, master = hve.setup(4)
    matching = hve.gen_token(master, [1, 0, None, None])
    missing = hve.gen_token(master, [0, 1, None, None])
    held = []
    for index in range(CIPHERTEXTS):
        ciphertext = hve.encrypt(public, [1, 0, index % 2, 0], b"%016d" % index)
        hve.query(matching, ciphertext)
        hve.query(missing, ciphertext)
        held.append(weakref.ref(ciphertext))
    del ciphertext
    gc.collect()
    return sum(ref() is not None for ref in held)


def counts() -> tuple[dict[str, float], dict[str, float]]:
    """The three records, and the two entry sizes as the parent's tuples."""
    records, parent = {}, {}
    for params in (TOY, PAPER):
        packed, as_tuple = entry_bytes(params)
        records[ENTRY.format(params.name)] = float(packed)
        parent[ENTRY.format(params.name)] = float(as_tuple)
    records[HELD] = float(ciphertexts_held())
    parent[HELD] = float(CIPHERTEXTS)  # the memo kept every one (up to 256)
    return records, parent


def test_served_memory_records(capsys, bench_writer, bench_runs):
    # benchmarks/conftest.py, imported here: tier-1 loads this file for counts()
    from conftest import BenchRecord, e2e_reads

    value, parent = counts()
    records = [
        BenchRecord(
            name, value[name], "count" if name == HELD else "bytes",
            direction="lower", ceiling=CEILINGS[name],
        )
        for name in sorted(value)
    ]
    with capsys.disabled():
        print()
        for record in records:
            print(f"  {record.name:55s} {record.value:6.0f} (parent {parent[record.name]:.0f})")
    assert all(value[name] <= CEILINGS[name] for name in value), value
    runs = bench_runs("served_memory")
    if runs:
        bench_writer(
            "BENCH_pr57.json",
            suite="served_memory",
            seed=SEED,
            workload={
                "harness": "bench_served_memory.counts: sys.getsizeof of the largest entry "
                "of the generator's whole comb table at TOY and PAPER; weak references to "
                f"{CIPHERTEXTS} fresh TOY ciphertexts each queried by a matching and a "
                "missing token, alive after gc.collect(); parent = the same entries as "
                "tuples of two ints, and the memo's 64",
                "parent": parent,
                "e2e_reads": e2e_reads(runs),
            },
            records=records,
        )


if __name__ == "__main__":
    print(json.dumps(counts()[0]))
