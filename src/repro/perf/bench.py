"""The versioned benchmark record schema and the BENCH_*.json reader.

This module is the single point of truth for benchmark output; every
committed ``BENCH_*.json`` is a v1 document:

* :class:`BenchRecord` — one named, unit-tagged measurement with gating
  metadata: ``direction`` (which way is better), ``tolerance`` (the
  noise band `repro perf gate` allows against a baseline) and optional
  absolute ``floor``/``ceiling`` bounds that must hold on *any* machine;
* :func:`write_bench` — the v1 document writer every bench emits
  through (``bench_schema: 1`` plus suite, workload, seed, git rev and
  environment fingerprint);
* :func:`load_bench_file` — reads one v1 document and refuses anything
  else;
* :func:`load_history` — every ``BENCH_*.json`` under a root as one map;
  a record name lives in exactly one file.

Units are informal but consistent: ``ratio`` (speedups — the only unit
comparable across machines), ``fraction`` (0..1 recoveries), ``ms`` /
``seconds``, ``ops/s``, ``bytes``, ``count``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict, dataclass
from typing import Any, Iterable

from ..errors import BenchFileError
from ..reader import expect_object, parse_json

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

_DOCUMENT_FIELDS = {
    "bench_schema": int,
    "suite": str,
    "workload": dict,
    "seed": (int, type(None)),
    "env": dict,
    "records": list,
}
# every record carries these; the rest only when set (``to_dict`` drops
# a None or empty field)
_RECORD_FIELDS = {"name": str, "value": (int, float), "unit": str, "direction": str}
_OPTIONAL_RECORD_FIELDS = {
    "tolerance": (int, float),
    "floor": (int, float),
    "ceiling": (int, float),
    "seed": int,
    "source": str,
}
_NUMBERS = ("value", "tolerance", "floor", "ceiling")


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
    def from_dict(cls, data: Any, source: str = "") -> "BenchRecord":
        """The record :meth:`to_dict` wrote, or :class:`BenchFileError`:
        no key missing or unknown, name and unit non-empty, numbers
        finite, ``direction`` one of ``higher``/``lower``."""
        fields = dict(_RECORD_FIELDS)
        if isinstance(data, dict):
            fields.update(
                (key, kind) for key, kind in _OPTIONAL_RECORD_FIELDS.items() if key in data
            )
        expect_object(data, fields, "bench record", BenchFileError)
        if not (data["name"] and data["unit"]):
            raise BenchFileError("a bench record's name and unit are non-empty")
        # a NaN fails the comparison, and an integer past the float range
        # would overflow the gate's arithmetic
        if not all(abs(data[key]) <= sys.float_info.max for key in _NUMBERS if key in data):
            raise BenchFileError(f"{data['name']}: a bench record's numbers are finite")
        if data["direction"] not in ("higher", "lower"):
            raise BenchFileError(f"{data['name']}: unknown direction {data['direction']!r}")
        return cls(**{"source": source, **data, "value": float(data["value"])})


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


def load_bench_file(path: str) -> list[BenchRecord]:
    """Records from one v1 BENCH file.

    Anything else raises :class:`BenchFileError` (a silent empty read
    would make the gate vacuously green).
    """
    source = os.path.basename(path)
    with open(path, "rb") as handle:
        text = handle.read()
    try:
        doc = parse_json(text, BenchFileError)
        version = doc.get("bench_schema") if isinstance(doc, dict) else None
        if type(version) is not int:
            raise BenchFileError("unrecognized benchmark document shape")
        if version != BENCH_SCHEMA_VERSION:
            raise BenchFileError(f"unsupported bench_schema {version}")
        expect_object(doc, _DOCUMENT_FIELDS, "bench document", BenchFileError)
        return [BenchRecord.from_dict(entry, source) for entry in doc["records"]]
    except BenchFileError as exc:
        raise BenchFileError(f"{source}: {exc}") from None


def load_history(root: str) -> dict[str, BenchRecord]:
    """Every ``BENCH_*.json`` under ``root`` as one name → record map.

    A record name lives in exactly one file: a second file carrying it
    raises :class:`BenchFileError` rather than deciding which one the
    gate reads.
    """
    history: dict[str, BenchRecord] = {}
    for entry in sorted(os.listdir(root)):
        if not (entry.startswith("BENCH_") and entry.endswith(".json")):
            continue
        for record in load_bench_file(os.path.join(root, entry)):
            if record.name in history:
                raise BenchFileError(
                    f"{record.name}: recorded in both {history[record.name].source} and {entry}"
                )
            history[record.name] = record
    return history
