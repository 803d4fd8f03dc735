"""The DS's hot path: publication fan-out across subscriber tokens.

The DS-side (or subscriber-side) matching workload is T tokens × R
publications.  Three configurations:

* **naive serial** — the textbook multi-pairing, every Miller loop cold;
* **precomputed serial** — each token's Miller lines computed once and
  reused across the publication stream (``HVE.query``);
* **4-worker MatchPool** — the same evaluation over four token partitions
  in worker processes that have already served these tokens on an
  earlier, different publication (workers and the lines their tokens own
  are long-lived, as a DS pool's are).

The first two, and the fixed-base scalar-mul micro, are timed by
``repro.perf.gate.probe_match_speedups`` — the function `repro perf gate
--only match` re-runs against the committed baselines; this bench calls
it at bench size and owns only the pool sweep, the assertions and the
record metadata.

Acceptance floors (asserted): precomputed serial ≥ 1.3× naive; warmed
4-worker pool ≥ 2× naive.

``test_token_partitions`` measures the partitions themselves
(``BENCH_pr38.json``): the Miller lines a warm publication builds with
200 registered tokens (none: a token keeps its lines for as long as it is
registered), the bytes a warm publication ships to two workers (the
ciphertext alone, once a partition), and the wall time of two worker
partitions over one in-process partition on `sim-churn`'s registry.

``P3S_WRITE_BENCH=1`` additionally writes the pool records to
``BENCH_pr2.json`` and the partition records to ``BENCH_pr38.json`` at
the repo root.  A record name lives in one BENCH file: the two gated
ratios and the serial timings are held by ``BENCH_pr15.json`` (medians
of three runs of this bench, entered there by hand), so they are printed
here and not written.
"""

from __future__ import annotations

import random
import statistics
import time
from multiprocessing.connection import Connection

from conftest import BenchRecord
from tests.pbe.reference import naive_query

from repro.core.config import default_schema
from repro.crypto import randomness
from repro.crypto.group import PairingGroup
from repro.obs import Observability
from repro.par import MatchPool
from repro.pbe.hve import HVE
from repro.pbe.serialize import serialize_hve_ciphertext, serialize_hve_token
from repro.perf.gate import match_workload, probe_match_speedups

VECTOR_BITS = 8  # n
TOKENS = 16  # T registered subscriber tokens
PUBLICATIONS = 6  # R distinct ciphertexts in the stream
SCALAR_MULS = 64

CLIFF_TOKENS = 200  # more tokens than a 128-entry line cache holds
CHURN_DISTINCT = 10  # sim-churn: 16 registrations, 10 distinct token byte strings
CHURN_REGISTRATIONS = 16
RATIO_PUBLICATIONS = 8
RATIO_REPEATS = 7
FRAMING_BYTES = 64  # a pickled request beyond its ciphertext, at most


def _pool4(group, earlier, ciphertexts, tokens) -> tuple[float, list]:
    with MatchPool(group, workers=4) as pool:
        # a long-lived pool's steady state: every partition holds its tokens
        # (Miller lines built) but has met none of the timed ciphertexts
        for ct in earlier:
            pool.match(ct, tokens)
        start = time.perf_counter()
        results = [pool.match(ct, tokens) for ct in ciphertexts]
        return time.perf_counter() - start, results


def test_match_fanout_speedups(capsys, bench_writer):
    gated, detail = probe_match_speedups(VECTOR_BITS, TOKENS, PUBLICATIONS, SCALAR_MULS)
    serial_speedup = gated["match_fanout.precompute_speedup"]
    micro_speedup = gated["match_fanout.fixed_base_speedup"]
    naive_s, pre_s = detail["naive_serial_s"], detail["precomputed_serial_s"]

    group, stream, tokens = match_workload(VECTOR_BITS, TOKENS, 2 * PUBLICATIONS)
    wire = [serialize_hve_ciphertext(group, ct) for ct in stream]
    ciphertexts = stream[PUBLICATIONS:]
    pool_s, pool_results = _pool4(
        group,
        wire[:PUBLICATIONS],
        wire[PUBLICATIONS:],
        [serialize_hve_token(group, token) for token in tokens],
    )
    # correctness before speed: the pool returns the textbook query's bytes
    assert pool_results == [
        [naive_query(group, token, ct) for token in tokens] for ct in ciphertexts
    ]
    pool_speedup = naive_s / pool_s

    with capsys.disabled():
        print(
            f"\nmatch fan-out ({TOKENS} tokens × {PUBLICATIONS} publications, "
            f"n={VECTOR_BITS}):\n"
            f"  naive serial        {naive_s*1e3:8.1f} ms\n"
            f"  precomputed serial  {pre_s*1e3:8.1f} ms   ({serial_speedup:.2f}×)\n"
            f"  4-worker MatchPool  {pool_s*1e3:8.1f} ms   ({pool_speedup:.2f}×)\n"
            f"  fixed-base scalar-mul micro: {micro_speedup:.2f}× "
            f"over {SCALAR_MULS} muls"
        )

    bench_writer(
        "BENCH_pr2.json",
        suite="match_fanout",
        workload={
            "vector_bits": VECTOR_BITS,
            "tokens": TOKENS,
            "publications": PUBLICATIONS,
            "constrained_positions": 4,
            "param_set": "TOY",
        },
        records=[
            BenchRecord("match_fanout.pool4_speedup", pool_speedup, "ratio", floor=2.0),
            BenchRecord("match_fanout.pool4_s", pool_s, "seconds", direction="lower"),
        ],
    )

    # acceptance floors (ISSUE.md PR 2)
    assert serial_speedup >= 1.3, f"precompute speedup {serial_speedup:.2f}× < 1.3×"
    assert pool_speedup >= 2.0, f"4-worker pool speedup {pool_speedup:.2f}× < 2×"


def _churn_world(rng: random.Random):
    """`sim-churn`'s registry on ``default_schema()`` at TOY: one-attribute
    interests, whose tokens are deterministic, so 16 registrations are 10
    distinct byte strings; and ``RATIO_PUBLICATIONS`` ciphertexts."""
    schema = default_schema()
    group = PairingGroup("TOY")
    hve = HVE(group)
    public, master = hve.setup(schema.alphabet_sizes)
    n = schema.vector_length

    def one_attribute(i: int) -> bytes:
        interest = [None] * n
        interest[i % n] = rng.randrange(schema.alphabet_sizes[i % n])
        return serialize_hve_token(group, hve.gen_token(master, interest))

    distinct = [one_attribute(i) for i in range(CHURN_DISTINCT)]
    registry = distinct + distinct[: CHURN_REGISTRATIONS - CHURN_DISTINCT]
    vectors = [
        [rng.randrange(size) for size in schema.alphabet_sizes] for _ in range(RATIO_PUBLICATIONS)
    ]
    ciphertexts = [
        serialize_hve_ciphertext(group, hve.encrypt(public, x, b"%16d" % i))
        for i, x in enumerate(vectors)
    ]
    return group, hve, public, master, registry, ciphertexts


def warm_precomputes(group, hve, public, master, rng: random.Random) -> int:
    """Miller-line builds (``pairing.precompute``) in the third publication
    against ``CLIFF_TOKENS`` distinct two-attribute tokens, serially."""
    schema = default_schema()
    alphabet, n = schema.alphabet_sizes, schema.vector_length
    pairs = [(a, b) for a in range(alphabet[0]) for b in range(alphabet[1])]
    tokens = []
    for a, b in rng.sample(pairs, CLIFF_TOKENS):
        interest = [a, b] + [None] * (n - 2)
        tokens.append(serialize_hve_token(group, hve.gen_token(master, interest)))
    ciphertexts = [
        serialize_hve_ciphertext(group, hve.encrypt(public, [i] * n, b"%16d" % i)) for i in range(3)
    ]
    with MatchPool(group, workers=0) as pool:
        for ciphertext in ciphertexts:
            obs = Observability()
            with obs.installed():
                pool.match(ciphertext, tokens)
    return obs.metrics.counter_total("op.pairing.precompute")


def bytes_to_workers(group, registry: list[bytes], ciphertexts: list[bytes]) -> int:
    """Bytes the DS process writes to its two workers' pipes for one warm
    publication (pickled requests, as they go over the wire)."""
    sent: list[int] = []
    original = Connection._send_bytes

    def counting(connection, buffer):
        sent.append(len(buffer))
        return original(connection, buffer)

    with MatchPool(group, workers=2) as pool:
        pool.match(ciphertexts[0], registry)
        Connection._send_bytes = counting
        try:
            pool.match(ciphertexts[1], registry)
        finally:
            Connection._send_bytes = original
    return sum(sent)


def partitions_over_serial(group, registry: list[bytes], ciphertexts: list[bytes]) -> float:
    """Median wall time of warm publications over two worker partitions,
    over the same on one in-process partition (the runs interleaved)."""
    times: dict[int, list[float]] = {0: [], 2: []}
    with MatchPool(group, workers=0) as serial, MatchPool(group, workers=2) as split:
        pools = {0: serial, 2: split}
        for pool in pools.values():
            pool.match(ciphertexts[0], registry)
        for _ in range(RATIO_REPEATS):
            for workers, pool in pools.items():
                start = time.perf_counter()
                for ciphertext in ciphertexts:
                    pool.match(ciphertext, registry)
                times[workers].append(time.perf_counter() - start)
    return statistics.median(times[2]) / statistics.median(times[0])


@randomness.seeded(0x38)
def test_token_partitions(capsys, bench_writer):
    rng = random.Random(0x38)
    group, hve, public, master, registry, ciphertexts = _churn_world(rng)
    assert len(set(registry)) == CHURN_DISTINCT and len(registry) == CHURN_REGISTRATIONS
    precomputes = warm_precomputes(group, hve, public, master, rng)
    shipped = bytes_to_workers(group, registry, ciphertexts)
    ratio = partitions_over_serial(group, registry, ciphertexts)
    ciphertext_bytes = len(ciphertexts[1])
    ceiling = 2 * (ciphertext_bytes + FRAMING_BYTES)  # the ciphertext, once a partition

    with capsys.disabled():
        print(
            f"\ntoken partitions (TOY, default_schema()):\n"
            f"  Miller-line builds, warm publication, {CLIFF_TOKENS} tokens  {precomputes}\n"
            f"  bytes to 2 workers a warm publication  {shipped} "
            f"(ciphertext {ciphertext_bytes} B)\n"
            f"  2 worker partitions / 1 in-process     {ratio:.2f}"
        )

    bench_writer(
        "BENCH_pr38.json",
        suite="match_fanout",
        workload={
            "harness": "bench_match_fanout.test_token_partitions",
            "param_set": "TOY",
            "schema": "default_schema()",
            "cliff_tokens": CLIFF_TOKENS,
            "registrations": CHURN_REGISTRATIONS,
            "distinct_tokens": CHURN_DISTINCT,
            "ciphertext_bytes": ciphertext_bytes,
            "publications_timed": RATIO_PUBLICATIONS,
            "repeats": RATIO_REPEATS,
        },
        records=[
            BenchRecord(
                "match_fanout.precomputes_per_warm_pub_200", precomputes, "count",
                direction="lower", ceiling=0,
            ),
            BenchRecord(
                "match_fanout.bytes_to_workers_per_pub", shipped, "bytes",
                direction="lower", ceiling=ceiling,
            ),
            BenchRecord("match_fanout.partitions_over_serial", ratio, "ratio", direction="lower"),
        ],
    )

    assert precomputes == 0
    assert shipped <= ceiling, f"{shipped} B to the workers > {ceiling}"
