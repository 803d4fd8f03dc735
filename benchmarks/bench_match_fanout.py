"""PR-2 hot path: publication fan-out across subscriber tokens.

The DS-side (or subscriber-side) matching workload is T tokens × R
publications.  Three configurations:

* **naive serial** — per-evaluation Miller loops, no caches (the pre-PR-2
  code path);
* **precomputed serial** — each token's Miller lines computed once and
  reused across the publication stream (the PR-2 serial path);
* **4-worker MatchPool** — the same precomputed evaluation fanned across
  a warmed process pool (workers and their caches are built outside the
  timed region, as a long-lived DS pool would be).

Acceptance floors (asserted): precomputed serial ≥ 1.3× naive; warmed
4-worker pool ≥ 2× naive.  On a single-core runner the pool's win comes
from worker-side precomputation caches; on multicore it compounds with
real parallelism.

``P3S_WRITE_BENCH=1`` additionally writes the measured numbers to
``BENCH_pr2.json`` at the repo root (the committed before/after record),
in the versioned schema of ``benchmarks/schema.py`` — the form
``repro perf gate`` ingests directly.
"""

from __future__ import annotations

import time

import pytest

from schema import BenchRecord

from repro.crypto.curve import clear_fixed_base_cache, fixed_base_table, set_fixed_base_enabled
from repro.crypto.group import PairingGroup
from repro.par import MatchPool
from repro.pbe.hve import HVE
from repro.pbe.serialize import serialize_hve_ciphertext, serialize_hve_token

VECTOR_BITS = 8  # n
TOKENS = 16  # T registered subscriber tokens
PUBLICATIONS = 6  # R distinct ciphertexts in the stream
CONSTRAINED = 4  # non-wildcard positions per token


@pytest.fixture(scope="module")
def workload():
    group = PairingGroup("TOY")
    hve = HVE(group)
    public, master = hve.setup(VECTOR_BITS)
    x = [i % 2 for i in range(VECTOR_BITS)]
    ciphertexts = [
        serialize_hve_ciphertext(
            group, hve.encrypt(public, x, bytes([i]) * 16)
        )
        for i in range(PUBLICATIONS)
    ]
    tokens = []
    for t in range(TOKENS):
        y: list[int | None] = [None] * VECTOR_BITS
        for j in range(CONSTRAINED):
            position = (t + j) % VECTOR_BITS
            # half the tokens match, half near-miss on one position
            y[position] = x[position] ^ (1 if (t % 2 and j == 0) else 0)
        tokens.append(serialize_hve_token(group, hve.gen_token(master, y)))
    return group, ciphertexts, tokens


def _sweep(match_fn, ciphertexts, tokens) -> tuple[float, list]:
    start = time.perf_counter()
    results = [match_fn(ct) for ct in ciphertexts]
    return time.perf_counter() - start, results


def _naive_serial(group, ciphertexts, tokens):
    from repro.pbe.serialize import deserialize_hve_ciphertext, deserialize_hve_token

    hve = HVE(group, precompute=False, match_cache_size=0)
    token_objs = [deserialize_hve_token(group, t) for t in tokens]

    def match(ct_bytes):
        ct = deserialize_hve_ciphertext(group, ct_bytes)
        return [hve.query(token, ct) for token in token_objs]

    return _sweep(match, ciphertexts, tokens)


def _precomputed_serial(group, ciphertexts, tokens):
    pool = MatchPool(group, workers=0)
    pool.start()
    pool.match(ciphertexts[0], tokens)  # warm token precomputation
    try:
        return _sweep(lambda ct: pool.match(ct, tokens), ciphertexts, tokens)
    finally:
        pool.close()


def _pool4(group, ciphertexts, tokens):
    # warm=... primes every worker's caches at startup, outside the timed
    # region — the steady state of a long-lived DS pool
    pool = MatchPool(group, workers=4, warm=(ciphertexts[0], tokens))
    pool.start()
    try:
        return _sweep(lambda ct: pool.match(ct, tokens), ciphertexts, tokens)
    finally:
        pool.close()


def _fixed_base_micro(group) -> dict:
    """Scalar-mul micro numbers: windowed ladder vs comb table."""
    import random

    rng = random.Random(0xFB)
    scalars = [rng.randrange(1, group.order) for _ in range(64)]
    g = group.generator
    set_fixed_base_enabled(False)
    start = time.perf_counter()
    for k in scalars:
        g * k
    naive_s = time.perf_counter() - start
    set_fixed_base_enabled(True)
    clear_fixed_base_cache()
    fixed_base_table(g)  # build the comb table outside the timed region
    start = time.perf_counter()
    for k in scalars:
        g * k
    fb_s = time.perf_counter() - start
    return {
        "scalar_muls": len(scalars),
        "windowed_s": naive_s,
        "fixed_base_s": fb_s,
        "speedup": naive_s / fb_s,
    }


def test_match_fanout_speedups(workload, capsys, bench_writer):
    group, ciphertexts, tokens = workload

    naive_s, naive_results = _naive_serial(group, ciphertexts, tokens)
    pre_s, pre_results = _precomputed_serial(group, ciphertexts, tokens)
    pool_s, pool_results = _pool4(group, ciphertexts, tokens)

    # correctness before speed: all three paths byte-identical
    assert pre_results == naive_results
    assert pool_results == naive_results

    serial_speedup = naive_s / pre_s
    pool_speedup = naive_s / pool_s
    micro = _fixed_base_micro(group)

    with capsys.disabled():
        print(
            f"\nmatch fan-out ({TOKENS} tokens × {PUBLICATIONS} publications, "
            f"n={VECTOR_BITS}):\n"
            f"  naive serial        {naive_s*1e3:8.1f} ms\n"
            f"  precomputed serial  {pre_s*1e3:8.1f} ms   ({serial_speedup:.2f}×)\n"
            f"  4-worker MatchPool  {pool_s*1e3:8.1f} ms   ({pool_speedup:.2f}×)\n"
            f"  fixed-base scalar-mul micro: {micro['speedup']:.2f}× "
            f"over {micro['scalar_muls']} muls"
        )

    # Record names match what the legacy BENCH_pr2.json normalizer emits,
    # so a re-run supersedes the committed history entry-for-entry.
    bench_writer(
        "BENCH_pr2.json",
        suite="match_fanout",
        workload={
            "vector_bits": VECTOR_BITS,
            "tokens": TOKENS,
            "publications": PUBLICATIONS,
            "constrained_positions": CONSTRAINED,
            "param_set": "TOY",
        },
        records=[
            BenchRecord(
                "match_fanout.precompute_speedup", serial_speedup, "ratio", floor=1.3
            ),
            BenchRecord("match_fanout.pool4_speedup", pool_speedup, "ratio", floor=2.0),
            BenchRecord(
                "match_fanout.fixed_base_speedup", micro["speedup"], "ratio", floor=1.5
            ),
            BenchRecord("match_fanout.naive_serial_s", naive_s, "seconds", direction="lower"),
            BenchRecord(
                "match_fanout.precomputed_serial_s", pre_s, "seconds", direction="lower"
            ),
            BenchRecord("match_fanout.pool4_s", pool_s, "seconds", direction="lower"),
        ],
    )

    # acceptance floors (ISSUE.md PR 2)
    assert serial_speedup >= 1.3, f"precompute speedup {serial_speedup:.2f}× < 1.3×"
    assert pool_speedup >= 2.0, f"4-worker pool speedup {pool_speedup:.2f}× < 2×"
