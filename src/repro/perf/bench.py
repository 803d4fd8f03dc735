"""The versioned benchmark record schema and the BENCH_*.json readers.

Nine PRs accumulated one-off BENCH_pr*.json shapes — each readable only
by the bench that wrote it.  This module is the single point of truth
for benchmark output from here on:

* :class:`BenchRecord` — one named, unit-tagged measurement with gating
  metadata: ``direction`` (which way is better), ``tolerance`` (the
  noise band `repro perf gate` allows against a baseline) and optional
  absolute ``floor``/``ceiling`` bounds that must hold on *any* machine;
* :func:`write_bench` — the v1 document writer every bench emits
  through (``bench_schema: 1`` plus suite, workload, seed, git rev and
  environment fingerprint);
* :func:`load_bench_file` — reads v1 documents *and* normalizes the six
  legacy PR-era shapes into records, so the committed history is one
  uniform stream however old the file;
* :func:`load_history` — every ``BENCH_*.json`` under a root, merged
  newest-wins by record name.

Units are informal but consistent: ``ratio`` (speedups — the only unit
comparable across machines), ``fraction`` (0..1 recoveries), ``ms`` /
``seconds``, ``ops/s``, ``bytes``, ``count``.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchRecord",
    "write_bench",
    "bench_document",
    "load_bench_file",
    "load_history",
    "environment_fingerprint",
    "git_rev",
]

BENCH_SCHEMA_VERSION = 1

# Default noise tolerance per unit when a record doesn't carry its own:
# machine-independent ratios are tight; raw timings across machines are
# basically weather, so the gate is generous with them.
DEFAULT_TOLERANCES = {
    "ratio": 0.40,
    "fraction": 0.10,
    "ms": 1.50,
    "seconds": 1.50,
    "ops/s": 0.75,
    "bytes": 0.25,
    "count": 0.25,
}
FALLBACK_TOLERANCE = 0.75


@dataclass
class BenchRecord:
    """One measurement plus the metadata the perf gate needs to judge it."""

    name: str
    value: float
    unit: str = "ratio"
    direction: str = "higher"  # "higher" or "lower" is better
    tolerance: float | None = None  # noise band vs baseline; None: per-unit default
    floor: float | None = None  # absolute machine-independent lower bound
    ceiling: float | None = None  # absolute upper bound
    seed: int | None = None
    source: str = ""

    def effective_tolerance(self) -> float:
        if self.tolerance is not None:
            return self.tolerance
        return DEFAULT_TOLERANCES.get(self.unit, FALLBACK_TOLERANCE)

    def to_dict(self) -> dict[str, Any]:
        out = {k: v for k, v in asdict(self).items() if v is not None and v != ""}
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any], source: str = "") -> "BenchRecord":
        return cls(
            name=data["name"],
            value=float(data["value"]),
            unit=data.get("unit", "ratio"),
            direction=data.get("direction", "higher"),
            tolerance=data.get("tolerance"),
            floor=data.get("floor"),
            ceiling=data.get("ceiling"),
            seed=data.get("seed"),
            source=data.get("source", source),
        )


def git_rev() -> str | None:
    """Short git revision of the working tree, or None outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover - no git
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def environment_fingerprint() -> dict[str, Any]:
    """Enough machine identity to interpret a committed record later."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "git_rev": git_rev(),
    }


def bench_document(
    suite: str,
    records: Iterable[BenchRecord],
    workload: dict[str, Any] | None = None,
    seed: int | None = None,
) -> dict[str, Any]:
    """The v1 JSON document for one bench run."""
    return {
        "bench_schema": BENCH_SCHEMA_VERSION,
        "suite": suite,
        "workload": dict(workload or {}),
        "seed": seed,
        "env": environment_fingerprint(),
        "records": [record.to_dict() for record in records],
    }


def write_bench(
    path: str,
    suite: str,
    records: Iterable[BenchRecord],
    workload: dict[str, Any] | None = None,
    seed: int | None = None,
) -> dict[str, Any]:
    """Write the v1 document to ``path``; returns the document."""
    document = bench_document(suite, records, workload=workload, seed=seed)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return document


# -- readers: v1 and the legacy PR-era shapes -----------------------------------------


def _records_v1(doc: dict[str, Any], source: str) -> list[BenchRecord]:
    return [BenchRecord.from_dict(entry, source) for entry in doc.get("records", [])]


def _records_pr2(doc: dict[str, Any], source: str) -> list[BenchRecord]:
    """PR 2: match fan-out speedups + fixed-base scalar-mul micro."""
    fanout = doc["match_fanout"]
    micro = doc.get("fixed_base_micro", {})
    records = [
        BenchRecord(
            "match_fanout.precompute_speedup",
            fanout["precompute_speedup"],
            "ratio",
            floor=1.3,
            source=source,
        ),
        BenchRecord(
            "match_fanout.pool4_speedup",
            fanout["pool4_speedup"],
            "ratio",
            floor=2.0,
            source=source,
        ),
    ]
    if "speedup" in micro:
        records.append(
            BenchRecord(
                "match_fanout.fixed_base_speedup",
                micro["speedup"],
                "ratio",
                floor=1.5,
                source=source,
            )
        )
    return records


def _records_pr3(doc: dict[str, Any], source: str) -> list[BenchRecord]:
    """PR 3: live TCP substrate latencies and throughput."""
    return [
        BenchRecord(
            "live_substrate.rpc_echo_p95_ms",
            doc["rpc_echo_rtt"]["p95_ms"],
            "ms",
            direction="lower",
            source=source,
        ),
        BenchRecord(
            "live_substrate.publish_deliver_p95_ms",
            doc["publish_deliver_latency"]["p95_ms"],
            "ms",
            direction="lower",
            source=source,
        ),
        BenchRecord(
            "live_substrate.publications_per_s",
            doc["burst_throughput"]["publications_per_s"],
            "ops/s",
            floor=1.0,
            source=source,
        ),
        BenchRecord(
            "live_substrate.live_over_sim",
            doc["substrate_overhead"]["live_over_sim"],
            "ratio",
            direction="lower",
            ceiling=25.0,
            source=source,
        ),
    ]


def _records_pr4(doc: dict[str, Any], source: str) -> list[BenchRecord]:
    """PR 4: telemetry-plane scrape, exposition and flight-recorder tax."""
    return [
        BenchRecord(
            "telemetry.scrape_p95_ms",
            doc["scrape_sweep"]["p95_ms"],
            "ms",
            direction="lower",
            source=source,
        ),
        BenchRecord(
            "telemetry.exposition_render_ms",
            doc["openmetrics_exposition"]["render_ms"],
            "ms",
            direction="lower",
            source=source,
        ),
        BenchRecord(
            "telemetry.flight_recorder_overhead_pct",
            doc["flight_recorder_tax"]["overhead_pct"],
            "count",
            direction="lower",
            ceiling=80.0,
            source=source,
        ),
    ]


def _records_pr6(doc: dict[str, Any], source: str) -> list[BenchRecord]:
    """PR 6: durable-store append throughput, recovery, GC sweeps."""
    records: list[BenchRecord] = []
    for backend, floor in (("wal_fsync", 50.0), ("wal_nofsync", 500.0), ("sqlite", 25.0)):
        entry = doc["append_throughput"].get(backend)
        if entry:
            records.append(
                BenchRecord(
                    f"store.{backend}_records_per_s",
                    entry["records_per_s"],
                    "ops/s",
                    floor=floor,
                    source=source,
                )
            )
    for entry in doc.get("recovery_open", []):
        records.append(
            BenchRecord(
                f"store.compaction_speedup_{entry['log_records']}",
                entry["speedup"],
                "ratio",
                floor=1.0,
                source=source,
            )
        )
    for entry in doc.get("gc_sweep", []):
        records.append(
            BenchRecord(
                f"store.gc_speedup_{entry['live_items']}",
                entry["speedup"],
                "ratio",
                floor=1.0,
                source=source,
            )
        )
    return records


def _records_pr8(doc: dict[str, Any], source: str) -> list[BenchRecord]:
    """PR 8: cluster scaling — deliveries/s speedup per DS shard count."""
    records: list[BenchRecord] = []
    for entry in doc.get("scaling", []):
        shards = entry["ds_shards"]
        if shards <= 1:
            continue
        # sub-linear but real scaling: at least half the ideal speedup
        records.append(
            BenchRecord(
                f"cluster.speedup_ds{shards}",
                entry["speedup"],
                "ratio",
                floor=shards / 2,
                source=source,
            )
        )
    return records


def _records_pr9(doc: dict[str, Any], source: str) -> list[BenchRecord]:
    """PR 9: observability tax — throughput recovery per tracing mode."""
    modes = doc["modes"]
    seed = doc.get("workload", {}).get("seed")
    records = [
        BenchRecord(
            "obs_overhead.always_recovery",
            modes["always"]["recovery_vs_off"],
            "fraction",
            floor=0.5,
            seed=seed,
            source=source,
        ),
        BenchRecord(
            "obs_overhead.sampled_recovery",
            modes["sampled"]["recovery_vs_off"],
            "fraction",
            floor=0.90,
            seed=seed,
            source=source,
        ),
    ]
    return records


# Shape detection: the first key that identifies a legacy document.
_LEGACY_NORMALIZERS: list[tuple[str, Callable[[dict, str], list[BenchRecord]]]] = [
    ("match_fanout", _records_pr2),
    ("rpc_echo_rtt", _records_pr3),
    ("scrape_sweep", _records_pr4),
    ("append_throughput", _records_pr6),
    ("scaling", _records_pr8),
    ("modes", _records_pr9),
]


def load_bench_file(path: str) -> list[BenchRecord]:
    """Records from one BENCH file — v1 or any legacy PR-era shape.

    Unknown shapes raise ``ValueError`` (a silent empty read would make
    the gate vacuously green).
    """
    with open(path) as handle:
        doc = json.load(handle)
    source = os.path.basename(path)
    if doc.get("bench_schema") == BENCH_SCHEMA_VERSION:
        return _records_v1(doc, source)
    if isinstance(doc.get("bench_schema"), int):
        raise ValueError(
            f"{source}: unsupported bench_schema {doc['bench_schema']}"
        )
    for key, normalizer in _LEGACY_NORMALIZERS:
        if key in doc:
            return normalizer(doc, source)
    raise ValueError(f"{source}: unrecognized benchmark document shape")


def load_history(root: str) -> dict[str, BenchRecord]:
    """Every ``BENCH_*.json`` under ``root`` as one name → record map.

    Files load in natural order (``BENCH_pr9`` before ``BENCH_pr10``), so
    when two files carry the same record name the later PR's wins —
    re-running a migrated bench supersedes its legacy ancestor.
    """
    history: dict[str, BenchRecord] = {}
    entries = [e for e in os.listdir(root) if e.startswith("BENCH_") and e.endswith(".json")]
    for entry in sorted(
        entries, key=lambda e: [int(t) if t.isdigit() else t for t in re.split(r"(\d+)", e)]
    ):
        for record in load_bench_file(os.path.join(root, entry)):
            history[record.name] = record
    return history
