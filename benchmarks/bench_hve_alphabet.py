"""One HVE over the schema's own alphabet: what a one-attribute match pairs,
what a ciphertext carries, and what a warm match costs — ``BENCH_pr33.json``.

``default_schema()`` (10 attributes × 16 values, the Table 1 shape) under
its two encodings: ``symbol`` (the default, one position an attribute) and
``bit`` (the paper's 40 binary positions, the only one before).  Three
records, all under ``repro perf gate --smoke``; each has a ``.bit`` twin,
the same measurement under the bit encoding, with no ceiling:

* ``hve_alphabet.pairs_per_match`` — pairings one one-attribute token
  (the workloads' interest) costs a match: an exact count (bit 8,
  ceiling 2);
* ``hve_alphabet.points_per_ciphertext`` — G1 points one ciphertext
  carries: an exact count (bit 80, ceiling 20);
* ``hve_alphabet.PAPER.query_over_fq2_mul`` — a warm ``HVE.query`` of that
  token (its own Miller lines) over one ``F_q²``
  multiplication, medians: a ratio that does not depend on the machine
  (bit ≈ 2700, ceiling 1200).

:func:`replay` runs one workload's publications (``benchmarks/e2e``'s
``generate``) through ``HVE.encrypt`` from a cold key, under the parent's
encoding and promotion rule (bit, a key base's table on its third use),
the symbol encoding under that rule, and this tree's (symbol, first use):
key tables built, the warm-up encryptions' time, and the p50 of each
measured phase.  ``python benchmarks/bench_hve_alphabet.py [WORKLOAD
SEED]`` prints the records, and the replay when given a workload.

A record is the median of five reads.  ``$P3S_BENCH_RUNS/hve_alphabet`` names a directory
holding ``e2e/[<label>-]<workload>-<seed>.jsonl``: one line per
``benchmarks/e2e/run.py --workload … --seed …`` run of the alternating
parent/change pairs, ``{"side", "pair", "result": <the harness's last
stdout line>}`` (``traced-…``: ``--trace 1``).  The records are measured
and their ceilings asserted on every run; ``BENCH_pr33.json`` is written
only with ``$P3S_BENCH_RUNS/hve_alphabet`` and ``P3S_WRITE_BENCH=1``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

from conftest import BenchRecord, e2e_reads

from repro.core.config import default_schema
from repro.crypto import randomness
from repro.crypto.group import PairingGroup
from repro.pbe import ENCODINGS, HVE, Interest, MetadataSchema

PAIRS = "hve_alphabet.pairs_per_match"
POINTS = "hve_alphabet.points_per_ciphertext"
RATIO = "hve_alphabet.PAPER.query_over_fq2_mul"
CEILING = {PAIRS: 2.0, POINTS: 20.0, RATIO: 1200.0}
UNIT = {PAIRS: "count", POINTS: "count", RATIO: "ratio"}
QUERIES = 20
MULS = 1000
READS = 5
GUID = b"guid-0123456789ab"


def schema_for(encoding: str) -> MetadataSchema:
    return MetadataSchema(default_schema().attributes, encoding)


def _metadata(schema: MetadataSchema) -> dict[str, str]:
    return {spec.name: spec.values[i % len(spec.values)] for i, spec in enumerate(schema.attributes)}


@randomness.seeded(33)
def measure() -> dict[str, float]:
    """The three records and their ``.bit`` twins, one read."""
    group = PairingGroup("PAPER")
    a, b = group.random_gt(), group.random_gt()
    products = []
    for _ in range(20):
        start = time.perf_counter()
        for _ in range(MULS):
            a * b
        products.append((time.perf_counter() - start) / MULS)
    out = {}
    for encoding in ENCODINGS:
        schema = schema_for(encoding)
        hve = HVE(group)
        public, master = hve.setup(schema.alphabet_sizes)
        metadata = _metadata(schema)
        ciphertext = hve.encrypt(public, schema.encode_metadata(metadata), GUID)
        interest = Interest({"attr00": metadata["attr00"]})
        token = hve.gen_token(master, schema.encode_interest(interest))
        assert hve.query(token, ciphertext) == GUID  # cold: builds the token's lines
        queries = []
        for _ in range(QUERIES):
            start = time.perf_counter()
            hve.query(token, ciphertext)
            queries.append(time.perf_counter() - start)
        suffix = "" if encoding == "symbol" else "." + encoding
        out[PAIRS + suffix] = float(2 * len(token.positions))
        out[POINTS + suffix] = float(len(ciphertext.x_components) + len(ciphertext.w_components))
        out[RATIO + suffix] = statistics.median(queries) / statistics.median(products)
    return out


# (encoding, large uses before a key base's table): the parent's rule, the
# symbol encoding under that rule, and this tree's rule (a key base's first use)
RULES = (("bit", 2), ("symbol", 2), ("symbol", 0))


def replay(workload: str, seed: int) -> dict[str, dict[str, float]]:
    """One workload's publications (warm-up, latency and throughput phases)
    through ``HVE.encrypt`` at its parameter set, a cold key per rule of
    :data:`RULES`: ``{"<encoding>-<promote_after>": {"tables", "warmup_s",
    "latency_ms_p50", "throughput_ms_p50"}}``."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "e2e"))
    from workloads import WORKLOADS, generate

    spec = WORKLOADS[workload]
    inputs = generate(spec, seed, 20.0)
    out = {}
    for encoding, promote_after in RULES:
        schema = schema_for(encoding)
        hve = HVE(PairingGroup(spec.config.get("param_set", "TOY")))

        def encrypt_ms(publications) -> list[float]:
            times = []
            for publication in publications:
                x = schema.encode_metadata(publication.metadata)
                start = time.perf_counter()
                hve.encrypt(public, x, GUID)
                times.append(1000 * (time.perf_counter() - start))
            return times

        with randomness.seeded(seed):  # every rule draws the same scalars
            public, _ = hve.setup(schema.alphabet_sizes)
            public.tables.promote_after = promote_after  # the program always runs 0
            warmup = encrypt_ms(inputs.warmup)
            latency = encrypt_ms(inputs.latency)
            throughput = encrypt_ms(inputs.throughput)
        out[f"{encoding}-{promote_after}"] = {
            "tables": float(len(public.tables.tables)),
            "warmup_s": sum(warmup) / 1000,
            "latency_ms_p50": statistics.median(latency),
            "throughput_ms_p50": statistics.median(throughput),
        }
    return out


def test_hve_alphabet_records(capsys, bench_writer, bench_runs):
    reads: dict[str, list[float]] = {}
    for _ in range(READS):
        for name, read in measure().items():
            reads.setdefault(name, []).append(read)
    value = {name: statistics.median(values) for name, values in reads.items()}
    records = [
        BenchRecord(
            name,
            value[name],
            UNIT[name.removesuffix(".bit")],
            direction="lower",
            ceiling=CEILING.get(name),
        )
        for name in sorted(value)
    ]
    with capsys.disabled():
        print()
        for record in records:
            print(f"  {record.name:50s} {record.value:9.3f} {record.unit}")

    assert all(value[name] <= ceiling for name, ceiling in CEILING.items())
    assert all(value[name + ".bit"] > ceiling for name, ceiling in CEILING.items())
    runs = bench_runs("hve_alphabet")
    if runs:
        bench_writer(
            "BENCH_pr33.json",
            suite="hve_alphabet",
            seed=33,
            workload={
                "harness": "bench_hve_alphabet.measure: default_schema() at PAPER under both "
                f"encodings; a one-attribute token; {QUERIES} warm HVE.query over "
                f"{MULS} F_q2 products, medians; value = median of {READS} reads; .bit = the same "
                "under the bit encoding",
                "parent": "3398931",
                "reads": reads,
                "replay": {
                    f"{workload}-2012": replay(workload, 2012)
                    for workload in ("sim-paper", "live-fanout", "live-payload", "sim-churn")
                },
                "e2e_reads": e2e_reads(runs),
            },
            records=records,
        )


if __name__ == "__main__":
    print(json.dumps(measure()))
    if len(sys.argv) == 3:
        print(json.dumps(replay(sys.argv[1], int(sys.argv[2]))))
