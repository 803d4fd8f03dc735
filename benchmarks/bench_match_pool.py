"""The match pool's break-even: from how many distinct tokens two worker
partitions beat one in-process partition — ``BENCH_pr53.json``.

``MatchPool`` matches in process until the distinct tokens it is asked to
match reach its parameter set's ``repro.par.pool.SPLIT_AT``, and only then
forks its workers.  This bench is where those counts come from.  At each
swept count of distinct tokens on ``default_schema()`` it times warm
publications on two arms, interleaved read by read: one in-process partition
(``MatchPool(group, workers=1)``), and two worker partitions
(``workers=2``, with ``SPLIT_AT`` lowered by ``monkeypatch`` so the pool
splits at any count).  A read is the wall time and the CPU time — this
process, plus the workers' own from ``/proc/<pid>/stat`` — of
``max(2, 256 // count)`` publications, divided by their number.

* Swept counts: 10 (`sim-churn`'s registry), 16, 32, 64, 128, 256 and 1024
  at ``TOY``; 4, 8, 16, 32 and 64 at ``PAPER``.  Up to 160 tokens the
  interests constrain one attribute; one-attribute tokens are
  deterministic, so ``default_schema()`` has only 10 × 16 of them, and
  past that the interests constrain two.
* The workers win a pass at a count when they are faster in at least 9 of
  its 10 reads, and their median is below the in-process median by more
  than the in-process reads' quartile spread.  The sweep makes three
  passes over every count, and the workers pay at a count only if they win
  all three: three single-pass runs of one tree on a shared 2-vCPU box
  read the ``TOY`` break-even as 64, 64 and 10, and two three-pass runs
  as 64 and 256.  A parameter set's break-even is the smallest count at
  which the workers pay, and ``SPLIT_AT`` holds each set's: a pool splits
  where the workers pay on the set it runs on.

Records, all in ``BENCH_pr53.json`` under ``repro perf gate --smoke``:

* ``match_pool.TOY.break_even_tokens`` and
  ``match_pool.PAPER.break_even_tokens`` — those counts; ``TOY``'s has
  floor 11: above `sim-churn`'s 10 distinct tokens, so that workload forks
  nothing.  ``tests/par/test_pool.py`` holds ``SPLIT_AT`` to them;
* ``match_pool.TOY.pooled_over_in_process_wall_1024`` and
  ``match_pool.PAPER.pooled_over_in_process_wall_64`` — median wall
  times, workers over in process, at each set's largest count: ceiling
  1.0, the workers pay there;
* ``match_pool.TOY.pooled_over_in_process_cpu_10`` — CPU, workers over in
  process, at `sim-churn`'s 10 tokens, reported: each worker's pickle, pipe
  round trip and second ciphertext decode;
* ROADMAP item 9's numbers at 1024 ``TOY`` tokens:
  ``match_pool.TOY.registry_bytes_1024`` (the token bytes a DS shard
  holds: every shard holds every registration),
  ``match_pool.TOY.line_bytes_per_token_1024`` (what ``tracemalloc`` sees
  one partition hold a token: its decoded points and Miller lines) and
  ``match_pool.TOY.pairings_per_pub_1024`` (``op.pairing`` in one warm
  publication: two a constrained attribute, ceiling 4 × 1024).

Wall and CPU ratios are medians over the passes.  The whole sweep, every
pass's reads, is the file's ``workload.sweep``.  ``P3S_WRITE_BENCH=1``
writes the file; the bench takes about ten minutes on a 2-vCPU box.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import statistics
import time
import tracemalloc

from conftest import BenchRecord

from repro.core.config import default_schema
from repro.crypto import randomness
from repro.crypto.group import PairingGroup
from repro.obs import Observability
from repro.par import MatchPool
from repro.par import pool as pool_mod
from repro.pbe.hve import HVE
from repro.pbe.serialize import serialize_hve_ciphertext, serialize_hve_token

SWEEP = {"TOY": (10, 16, 32, 64, 128, 256, 1024), "PAPER": (4, 8, 16, 32, 64)}
READS = 10
WINS = 9  # reads of READS the workers must win
PASSES = 3  # whole sweeps; the workers pay at a count only if they pay in every one
CHURN_DISTINCT = 10  # sim-churn: 16 registrations, 10 distinct token byte strings
CIPHERTEXTS = 8  # distinct publications, cycled through a read


def publications_per_read(count: int) -> int:
    return max(2, 256 // count)


def interests(count: int, rng: random.Random) -> list[list[int | None]]:
    """``count`` distinct interests on ``default_schema()``: one constrained
    attribute while the schema has that many, two beyond."""
    schema = default_schema()
    n, sizes = schema.vector_length, schema.alphabet_sizes
    one = [{i: v} for i in range(n) for v in range(sizes[i])]
    two = [
        {i: v, j: w}
        for i, j in itertools.combinations(range(n), 2)
        for v in range(sizes[i])
        for w in range(sizes[j])
    ]
    chosen = rng.sample(one if count <= len(one) else two, count)
    return [[cell.get(i) for i in range(n)] for cell in chosen]


def world(param_set: str, count: int, rng: random.Random):
    """``(group, token bytes, ciphertext bytes)``: ``count`` distinct tokens
    and ``CIPHERTEXTS`` publications, on ``default_schema()``."""
    schema = default_schema()
    group = PairingGroup(param_set)
    hve = HVE(group)
    public, master = hve.setup(schema.alphabet_sizes)
    tokens = [serialize_hve_token(group, hve.gen_token(master, y)) for y in interests(count, rng)]
    assert len(set(tokens)) == count
    ciphertexts = [
        serialize_hve_ciphertext(
            group, hve.encrypt(public, [rng.randrange(size) for size in schema.alphabet_sizes],
                               b"%16d" % i)
        )
        for i in range(CIPHERTEXTS)
    ]  # fmt: skip
    return group, tokens, ciphertexts


def cpu_s(pool: MatchPool) -> float:
    """CPU seconds of this process and of the pool's worker processes."""
    total = time.process_time()
    for partition in pool.partitions:
        process = getattr(partition, "process", None)
        if process is not None:
            with open(f"/proc/{process.pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    return total


def read(pool: MatchPool, tokens: list[bytes], ciphertexts: list[bytes]) -> tuple[float, float]:
    """Wall and CPU seconds a warm publication, over one read's publications."""
    batch = [ciphertexts[i % len(ciphertexts)] for i in range(publications_per_read(len(tokens)))]
    cpu, wall = cpu_s(pool), time.perf_counter()
    for ciphertext in batch:
        pool.match(ciphertext, tokens)
    wall, cpu = time.perf_counter() - wall, cpu_s(pool) - cpu
    return wall / len(batch), cpu / len(batch)


def sweep_point(group, tokens, ciphertexts) -> dict:
    """Both arms' ``READS`` reads at one count, interleaved (the arm that
    goes first alternates), after one warm-up publication each."""
    reads: dict[str, dict[str, list[float]]] = {
        arm: {"wall_s": [], "cpu_s": []} for arm in ("in_process", "pooled")
    }
    with MatchPool(group, workers=1) as alone, MatchPool(group, workers=2) as split:
        arms = {"in_process": alone, "pooled": split}
        for pool in arms.values():
            pool.match(ciphertexts[-1], tokens)  # every token's Miller lines
        assert len(split.partitions) == 2 and len(alone.partitions) == 1
        for index in range(READS):
            order = list(arms) if index % 2 == 0 else list(arms)[::-1]
            for arm in order:
                wall, cpu = read(arms[arm], tokens, ciphertexts)
                reads[arm]["wall_s"].append(wall)
                reads[arm]["cpu_s"].append(cpu)
    alone_wall, split_wall = reads["in_process"]["wall_s"], reads["pooled"]["wall_s"]
    q1, _, q3 = statistics.quantiles(alone_wall, n=4)
    won = sum(split < alone for alone, split in zip(alone_wall, split_wall))
    gain = statistics.median(alone_wall) - statistics.median(split_wall)
    return {
        "reads": reads,
        "wall_ratio": statistics.median(split_wall) / statistics.median(alone_wall),
        "cpu_ratio": sum(reads["pooled"]["cpu_s"]) / sum(reads["in_process"]["cpu_s"]),
        "pooled_won": won,
        "gain_over_spread": gain / (q3 - q1) if q3 > q1 else None,
        "pays": won >= WINS and gain > q3 - q1,
    }


def break_even(pays: dict[int, bool]) -> int | None:
    """The smallest count at which the workers pay."""
    return min((count for count, paid in pays.items() if paid), default=None)


def population(group, tokens: list[bytes], ciphertexts: list[bytes]) -> dict[str, float]:
    """ROADMAP item 9's numbers for one in-process partition of ``tokens``."""
    with MatchPool(group, workers=1) as pool:
        gc.collect()
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        pool.match(ciphertexts[0], tokens)  # decodes every token, builds its lines
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()
        obs = Observability()
        with obs.installed():
            pool.match(ciphertexts[1], tokens)
    return {
        "registry_bytes": float(sum(len(token) for token in tokens)),
        "line_bytes_per_token": held / len(tokens),
        "pairings_per_pub": obs.metrics.counter_total("op.pairing"),
    }


@randomness.seeded(0x53)
def test_match_pool_break_even(capsys, bench_writer, monkeypatch):
    # the worker arm splits at any count
    monkeypatch.setattr(pool_mod, "SPLIT_AT", dict.fromkeys(SWEEP, 1))
    rng = random.Random(0x53)
    worlds = {
        param_set: {count: world(param_set, count, rng) for count in counts}
        for param_set, counts in SWEEP.items()
    }
    passes: dict[str, dict[int, list[dict]]] = {
        param_set: {count: [] for count in counts} for param_set, counts in SWEEP.items()
    }
    for _ in range(PASSES):
        for param_set, counts in SWEEP.items():
            for count in counts:
                passes[param_set][count].append(sweep_point(*worlds[param_set][count]))
    sweep = {
        param_set: {
            count: {
                "pays": all(point["pays"] for point in points),
                "wall_ratio": statistics.median(point["wall_ratio"] for point in points),
                "cpu_ratio": statistics.median(point["cpu_ratio"] for point in points),
                "passes": points,
            }
            for count, points in counts.items()
        }
        for param_set, counts in passes.items()
    }
    evens = {
        param_set: break_even({count: point["pays"] for count, point in points.items()})
        for param_set, points in sweep.items()
    }
    item9 = population(*worlds["TOY"][max(SWEEP["TOY"])])

    with capsys.disabled():
        print(
            f"\nmatch pool, 2 workers over 1 in-process partition "
            f"({PASSES} passes of {READS} reads):"
        )
        for param_set, points in sweep.items():
            for count, point in points.items():
                alone = statistics.median(
                    wall for each in point["passes"] for wall in each["reads"]["in_process"]["wall_s"]
                )
                won = " ".join(f"{each['pooled_won']:2d}" for each in point["passes"])
                print(
                    f"  {param_set:5s} {count:5d} tokens  in process {alone * 1e3:8.2f} ms  "
                    f"wall {point['wall_ratio']:.2f}  cpu {point['cpu_ratio']:.2f}  "
                    f"won {won} of {READS}  {'pays' if point['pays'] else '-'}"
                )
        print(f"  break-even {evens}; item 9 at 1024 TOY tokens: {item9}")
    assert None not in evens.values(), evens
    toy, paper = sweep["TOY"], sweep["PAPER"]

    top = {param_set: max(points) for param_set, points in sweep.items()}
    records = [
        BenchRecord(
            "match_pool.TOY.break_even_tokens", evens["TOY"], "count", direction="lower",
            floor=CHURN_DISTINCT + 1,
        ),
        BenchRecord("match_pool.PAPER.break_even_tokens", evens["PAPER"], "count", direction="lower"),
        *(
            BenchRecord(
                f"match_pool.{param_set}.pooled_over_in_process_wall_{top[param_set]}",
                sweep[param_set][top[param_set]]["wall_ratio"], "ratio",
                direction="lower", ceiling=1.0,
            )
            for param_set in SWEEP
        ),
        BenchRecord(
            f"match_pool.TOY.pooled_over_in_process_cpu_{CHURN_DISTINCT}",
            toy[CHURN_DISTINCT]["cpu_ratio"], "ratio", direction="lower",
        ),
        BenchRecord(
            "match_pool.TOY.registry_bytes_1024", item9["registry_bytes"], "bytes",
            direction="lower",
        ),
        BenchRecord(
            "match_pool.TOY.line_bytes_per_token_1024", item9["line_bytes_per_token"], "bytes",
            direction="lower",
        ),
        BenchRecord(
            "match_pool.TOY.pairings_per_pub_1024", item9["pairings_per_pub"], "count",
            direction="lower", ceiling=4 * 1024,
        ),
    ]  # fmt: skip
    bench_writer(
        "BENCH_pr53.json",
        suite="match_pool",
        workload={
            "harness": (
                "bench_match_pool.test_match_pool_break_even: default_schema(); "
                f"{PASSES} passes over every count, each {READS} interleaved reads of "
                "MatchPool(workers=1) against MatchPool(workers=2) split at any count; a read = "
                "max(2, 256 // count) warm publications; wall = perf_counter, cpu = "
                "process_time + the workers' /proc utime+stime; a count pays when the workers "
                f"win >= {WINS} of {READS} reads by more than the in-process quartile spread "
                "in every pass; a set's break-even = the smallest count that pays"
            ),
            "break_even": evens,
            "sweep": {
                param_set: {str(count): point for count, point in points.items()}
                for param_set, points in sweep.items()
            },
        },
        records=records,
    )

    # the shape the constant rests on, asserted on every run
    assert paper[max(paper)]["wall_ratio"] < 1.0 and toy[max(toy)]["wall_ratio"] < 1.0
    assert item9["pairings_per_pub"] == 4 * 1024
