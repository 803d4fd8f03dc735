"""`repro perf gate` — the enforceable perf trajectory.

The committed BENCH_*.json history (read through
:mod:`repro.perf.bench`) records what this repository's hot paths
achieved when each PR landed.  The gate turns those files from
documentation into a check, in two layers:

* **smoke** — every history record's absolute ``floor``/``ceiling``
  bounds must hold.  These are machine-independent claims ("the
  precomputed match path is ≥1.3× the naive one", "always-on tracing
  recovers ≥50% of tracing-off"), so they are checkable anywhere —
  including CI runners that never ran the original bench;
* **fresh** — quick re-measurements of the machine-independent *ratio*
  metrics (match-path speedups, fixed-base micro, tracing recovery,
  profiler overhead) compared against the committed baselines with
  noise-aware thresholds: each record's ``tolerance`` (or its
  unit-class default) widens the acceptance band, because a laptop and
  a CI container disagree on absolutes but should agree on ratios.

A fresh probe failing means the current tree regressed a hot path the
history says it once had; a smoke failure means the committed record
itself no longer states a truth.  Both print the same report table and
exit non-zero through the CLI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from .bench import BenchRecord, load_history

__all__ = ["GateCheck", "GateReport", "run_gate", "smoke_checks", "fresh_probes", "format_gate"]


@dataclass
class GateCheck:
    """One gate judgement: a record against its bound or baseline."""

    name: str
    kind: str  # "floor" | "ceiling" | "baseline"
    baseline: float  # the bound or the committed value
    value: float  # the value being judged (fresh, or committed for smoke)
    passed: bool
    detail: str = ""


@dataclass
class GateReport:
    checks: list[GateCheck]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


def _bound_checks(name: str, record: BenchRecord, value: float, label: str) -> list[GateCheck]:
    """``value`` against the record's absolute floor and ceiling, where set."""
    checks: list[GateCheck] = []
    if record.floor is not None:
        detail = f"{label} {value:.3f} vs floor {record.floor:.3f}"
        checks.append(GateCheck(name, "floor", record.floor, value, value >= record.floor, detail))
    if record.ceiling is not None:
        detail = f"{label} {value:.3f} vs ceiling {record.ceiling:.3f}"
        checks.append(
            GateCheck(name, "ceiling", record.ceiling, value, value <= record.ceiling, detail)
        )
    return checks


def smoke_checks(history: dict[str, BenchRecord]) -> list[GateCheck]:
    """Absolute floor/ceiling validation of the committed history."""
    checks: list[GateCheck] = []
    for name, record in sorted(history.items()):
        checks.extend(_bound_checks(name, record, record.value, f"{record.source}: committed"))
    return checks


def baseline_checks(
    history: dict[str, BenchRecord], fresh: dict[str, float]
) -> list[GateCheck]:
    """Fresh values against committed baselines, tolerance-widened.

    ``higher``-is-better passes when
    ``fresh >= baseline * (1 - tolerance)``; ``lower`` mirrors.  Fresh
    values also face the record's absolute floor/ceiling — a probe that
    beats a stale baseline but breaks the floor still fails.
    """
    checks: list[GateCheck] = []
    for name, value in sorted(fresh.items()):
        record = history.get(name)
        if record is None:
            # a renamed or mistyped probe record must not stop being gated
            checks.append(
                GateCheck(name, "baseline", float("nan"), value, False, "no committed baseline")
            )
            continue
        tolerance = record.effective_tolerance()
        if record.direction == "lower":
            bound = record.value * (1.0 + tolerance)
            ok = value <= bound
            relation = f"fresh {value:.3f} <= {bound:.3f} ({record.value:.3f} +{tolerance:.0%})"
        else:
            bound = record.value * (1.0 - tolerance)
            ok = value >= bound
            relation = f"fresh {value:.3f} >= {bound:.3f} ({record.value:.3f} -{tolerance:.0%})"
        checks.append(GateCheck(name, "baseline", record.value, value, ok, relation))
        checks.extend(_bound_checks(name, record, value, "fresh"))
    return checks


# -- fresh probes ---------------------------------------------------------------
#
# Each probe is THE timer of its records: `repro perf gate` runs it at the
# default (seconds, not minutes) size, and the bench that commits the
# baseline — benchmarks/bench_match_fanout, bench_obs_overhead,
# bench_prof_overhead — calls the same function at bench size.  A probe
# returns ``(gated, detail)``: ``gated`` maps history record names to fresh
# values, all of which baseline_checks judges; ``detail`` carries whatever
# else the loop saw, for the bench's own assertions and ungated records.


def match_workload(vector_bits: int, tokens: int, publications: int):
    """The match fan-out population at TOY: ``publications`` ciphertexts of
    one attribute vector, ``tokens`` tokens constraining four positions
    each — half of them match, half near-miss on one position.  Returns
    ``(group, ciphertexts, tokens)`` as objects."""
    from ..crypto.group import PairingGroup
    from ..pbe.hve import HVE

    group = PairingGroup("TOY")
    hve = HVE(group)
    public, master = hve.setup(vector_bits)
    x = [i % 2 for i in range(vector_bits)]
    ciphertexts = [hve.encrypt(public, x, bytes([i]) * 16) for i in range(publications)]
    token_list = []
    for t in range(tokens):
        y: list[int | None] = [None] * vector_bits
        for j in range(4):
            position = (t + j) % vector_bits
            y[position] = x[position] ^ (1 if (t % 2 and j == 0) else 0)
        token_list.append(hve.gen_token(master, y))
    return group, ciphertexts, token_list


def probe_match_speedups(
    vector_bits: int = 8, tokens: int = 8, publications: int = 3, scalar_muls: int = 32
) -> tuple[dict[str, float], dict[str, Any]]:
    """``match_fanout.precompute_speedup``: the textbook multi-pairing of
    every (token, ciphertext) pair over a warm ``HVE.query`` of the same
    pairs.  ``match_fanout.fixed_base_speedup``: the windowed ladder over
    the generator's comb table, same scalars."""
    import random

    from ..crypto import precompute
    from ..pbe.hve import HVE

    group, ciphertexts, token_list = match_workload(vector_bits, tokens, publications)
    start = time.perf_counter()
    for ciphertext in ciphertexts:
        for token in token_list:
            pairs = []
            for i, (y_i, l_i) in zip(token.positions, token.components):
                pairs.append((ciphertext.x_components[i], y_i))
                pairs.append((ciphertext.w_components[i], l_i))
            group.multi_pair(pairs)
    naive_s = time.perf_counter() - start

    hve = HVE(group)
    for token in token_list:
        hve.query(token, ciphertexts[0])  # the token's Miller lines, outside the timed region
    start = time.perf_counter()
    for ciphertext in ciphertexts:
        for token in token_list:
            hve.query(token, ciphertext)
    pre_s = time.perf_counter() - start

    rng = random.Random(0xFB)
    scalars = [rng.randrange(1, group.order) for _ in range(scalar_muls)]
    g = group.generator
    start = time.perf_counter()
    for k in scalars:
        g.scalar_mul_windowed(k, 4)
    windowed_s = time.perf_counter() - start
    precompute.warm_generator(group)  # the comb build, outside the timed region
    start = time.perf_counter()
    for k in scalars:
        g * k
    fixed_s = time.perf_counter() - start

    gated = {
        "match_fanout.precompute_speedup": naive_s / pre_s,
        "match_fanout.fixed_base_speedup": windowed_s / fixed_s,
    }
    return gated, {"naive_serial_s": naive_s, "precomputed_serial_s": pre_s}


# The obs pipeline's shape — what BENCH_pr9.json recorded; gate and bench
# differ only in how many messages and repeats they run.
OBS_PAYLOAD_BYTES = 4096
OBS_HASH_ROUNDS = 160
OBS_DRAIN_EVERY = 100


def probe_obs_recovery(
    messages: int = 200, repeats: int = 3
) -> tuple[dict[str, float], dict[str, Any]]:
    """``obs_overhead.always_recovery``: throughput of a synthetic
    delivery pipeline with every span recorded and scraped over the same
    pipeline with no tracer — the telemetry tax a deployment pays.  Per
    message a publish → fan_out → deliver span tree around iterated
    SHA-256; every ``OBS_DRAIN_EVERY`` messages the finished spans are
    drained into a telemetry snapshot, JSON-serialized and ingested into
    a :class:`TelemetryAggregator` — the scrape path.  The two
    modes run interleaved (off/always) so drift hits both; ``detail`` is
    the best-of-``repeats`` row per mode."""
    import hashlib
    import json

    from ..obs.aggregate import TelemetryAggregator
    from ..obs.tracing import Tracer

    payload = b"\x5a" * OBS_PAYLOAD_BYTES

    def work() -> int:
        digest = payload
        for _ in range(OBS_HASH_ROUNDS):
            digest = hashlib.sha256(digest).digest() + payload
        return digest[0]

    def run(mode: str) -> dict[str, Any]:
        tracer = None if mode == "off" else Tracer(capacity=4096)
        aggregator = TelemetryAggregator()
        exported_bytes = exported_spans = 0
        start = time.perf_counter()
        for index in range(messages):
            if tracer is None:
                work()
                continue
            with tracer.span("publish", "pub"):
                with tracer.span("ds.fan_out", "ds"):
                    work()
                with tracer.span("deliver", "sub"):
                    pass
            if index % OBS_DRAIN_EVERY == OBS_DRAIN_EVERY - 1:
                drained = tracer.drain_finished()
                dropped = {"name": "obs.dropped_spans", "labels": {}, "value": tracer.dropped_spans}
                wire = json.dumps(
                    {
                        "service": "ds",
                        "origin": "probe",
                        "counters": [dropped],
                        "spans": [span.to_dict() for span in drained],
                    }
                )
                exported_bytes += len(wire)
                exported_spans += len(drained)
                aggregator.ingest(json.loads(wire))
        elapsed = time.perf_counter() - start
        return {
            "seconds": elapsed,
            "messages_per_s": messages / elapsed,
            "exported_spans": exported_spans,
            "exported_bytes": exported_bytes,
            "traces": len(aggregator.publish_deliver_trace_latencies()),
        }

    best = _interleaved_best(("off", "always"), run, repeats)
    recovery = best["off"]["seconds"] / best["always"]["seconds"]
    return {"obs_overhead.always_recovery": min(1.0, recovery)}, best


PROF_EVERY = 8  # the DeterministicSampler period BENCH_pr10.json recorded


def time_demo(
    publications: int, seed: int, make_profiler: Callable[[Any], Any] | None = None
) -> dict[str, Any]:
    """One run of the seeded demo workload with ``make_profiler(obs)``
    attached (none: profiling off).  The clock covers the workload only —
    sampler start/stop and the profile snapshot stay outside it."""
    from ..obs.observability import Observability
    from ..obs.prof.workload import run_demo_workload

    obs = Observability()
    profiler = None
    if make_profiler is not None:
        profiler = obs.profiler = make_profiler(obs)
        profiler.start()
    start = time.perf_counter()
    stats = run_demo_workload(publications, seed=seed, obs=obs)
    elapsed = time.perf_counter() - start
    if profiler is not None:
        profiler.stop()
    return {
        "seconds": elapsed,
        "publications_per_s": publications / elapsed,
        "delivered": stats["delivered"],
        "profile": None if profiler is None else profiler.profile(),
    }


def probe_profiler_overhead(
    publications: int = 15, seed: int = 3, repeats: int = 3
) -> tuple[dict[str, float], dict[str, Any]]:
    """``prof.det_recovery``: throughput of the seeded demo workload with
    a :class:`DeterministicSampler` attached over the same workload with
    none; ``detail`` is the best-of-``repeats`` row per mode (off/det,
    interleaved)."""
    from ..obs.prof.sampler import DeterministicSampler

    def run(mode: str) -> dict[str, Any]:
        if mode == "off":
            return time_demo(publications, seed)
        return time_demo(
            publications, seed, lambda obs: DeterministicSampler(PROF_EVERY, seed=seed, obs=obs)
        )

    best = _interleaved_best(("off", "det"), run, repeats)
    recovery = best["off"]["seconds"] / best["det"]["seconds"]
    return {"prof.det_recovery": min(1.0, recovery)}, best


def _interleaved_best(
    modes: tuple[str, ...], run: Callable[[str], dict[str, Any]], repeats: int
) -> dict[str, dict[str, Any]]:
    """Per mode, the fastest of ``repeats`` runs — modes interleaved, so
    CPU frequency drift hits all of them equally."""
    best: dict[str, dict[str, Any]] = {}
    for _ in range(repeats):
        for mode in modes:
            row = run(mode)
            if mode not in best or row["seconds"] < best[mode]["seconds"]:
                best[mode] = row
    return best


PROBES: dict[str, Callable[[], tuple[dict[str, float], dict[str, Any]]]] = {
    "match": probe_match_speedups,
    "obs": probe_obs_recovery,
    "prof": probe_profiler_overhead,
}


def fresh_probes(only: list[str] | None = None) -> dict[str, float]:
    """Run the fresh probes (all, or the named subset) at gate size."""
    fresh: dict[str, float] = {}
    for name, probe in PROBES.items():
        if only and name not in only:
            continue
        fresh.update(probe()[0])
    return fresh


def run_gate(
    root: str = ".",
    smoke: bool = False,
    only: list[str] | None = None,
    history: dict[str, BenchRecord] | None = None,
    fresh: dict[str, float] | None = None,
) -> GateReport:
    """The full gate: smoke checks always, fresh probes unless ``smoke``.

    ``history``/``fresh`` injection exists for tests (synthetically
    regressed histories, canned probe values).
    """
    history = history if history is not None else load_history(root)
    checks = smoke_checks(history)
    if not smoke:
        fresh = fresh if fresh is not None else fresh_probes(only)
        checks.extend(baseline_checks(history, fresh))
    return GateReport(checks)


def format_gate(report: GateReport) -> str:
    from .report import format_table

    rows = [
        [
            "PASS" if check.passed else "FAIL",
            check.name,
            check.kind,
            check.detail,
        ]
        for check in report.checks
    ]
    table = format_table(["", "metric", "check", "detail"], rows, title="perf gate")
    verdict = (
        "perf gate: PASS"
        if report.passed
        else f"perf gate: FAIL ({sum(not check.passed for check in report.checks)} of "
        f"{len(report.checks)} checks)"
    )
    return table + "\n" + verdict
