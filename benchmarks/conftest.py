"""Shared fixtures for the benchmark harness.

Benchmarks print the paper-style tables (run with ``-s`` to see them, or
read EXPERIMENTS.md for a captured transcript).  Heavyweight calibration
is session-scoped.

Every bench that commits numbers emits the versioned record schema of
:mod:`repro.perf.bench` through the ``bench_writer`` fixture —
``from conftest import BenchRecord`` to build the records.

Environment knobs:

* ``REPRO_BENCH_PARAMS`` — pairing parameter set for the crypto
  calibration benches (default ``TOY``; set ``PAPER`` for the full-size
  512-bit measurement — slower but directly comparable to the paper's
  prototype constants).
* ``P3S_WRITE_BENCH=1`` — write the ``BENCH_<x>.json`` a bench names at
  the repo root; unset (the default) leaves the committed record alone.
* ``P3S_BENCH_RUNS`` — the root of the parent/change harness runs that
  the record benches turn into records: ``<root>/<suite>`` for each
  bench's suite (``publisher_floor``, ``key_tables``, ``signed_comb``,
  ``miller_lines``, ``hve_alphabet``), handed out by the ``bench_runs``
  fixture.  Without it ``bench_publisher_floor.py`` skips and the others
  measure and assert but write no ``BENCH_*.json``.
"""

import glob
import json
import os
import pathlib
import sys

import pytest

from repro.perf.bench import BenchRecord, write_bench
from repro.perf.calibrate import calibrate

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_RUNS = os.environ.get("P3S_BENCH_RUNS")
# benchmarks/ is not a package; tests/ is, and holds the reference
# implementations (tests/pbe/reference.py) the benches compare against
sys.path.insert(0, str(REPO_ROOT))


def write_repo_bench(
    filename: str,
    suite: str,
    records: list[BenchRecord],
    workload: dict | None = None,
    seed: int | None = None,
) -> pathlib.Path | None:
    """Write ``BENCH_<x>.json`` at the repo root iff ``P3S_WRITE_BENCH=1``,
    keeping the file's ``workload.superseded``; returns the written path,
    or ``None`` when nothing was written."""
    if not os.environ.get("P3S_WRITE_BENCH"):
        return None
    target = REPO_ROOT / filename
    if target.exists():
        # a retired record's last value outlives re-records of its file
        superseded = json.loads(target.read_text())["workload"].get("superseded")
        if superseded is not None:
            workload = {**(workload or {}), "superseded": superseded}
    write_bench(str(target), suite, records, workload=workload, seed=seed)
    return target


@pytest.fixture()
def bench_writer():
    """``bench_writer(filename, suite, records, workload=..., seed=...)`` —
    the one way a bench commits numbers (see :func:`write_repo_bench`)."""
    return write_repo_bench


@pytest.fixture()
def bench_runs():
    """``bench_runs(suite)`` — the directory of ``suite``'s parent/change
    runs under ``P3S_BENCH_RUNS``, or ``None`` when there is none."""

    def runs(suite: str) -> str | None:
        if BENCH_RUNS is None:
            return None
        directory = os.path.join(BENCH_RUNS, suite)
        return directory if os.path.isdir(directory) else None

    return runs


def e2e_reads(runs: str) -> dict[str, dict[str, dict[str, list[float]]]]:
    """``{"<workload>-<seed>": {side: {metric: [value of pair 1, 2, …]}}}``."""
    out: dict[str, dict[str, dict[str, list[float]]]] = {}
    for path in sorted(glob.glob(os.path.join(runs, "e2e", "*.jsonl"))):
        with open(path) as handle:
            rows = sorted((json.loads(line) for line in handle), key=lambda row: row["pair"])
        sides = out[os.path.basename(path)[: -len(".jsonl")]] = {}
        for row in rows:
            assert row["result"]["correct"] and not row["result"]["failed"], (path, row)
            for metric, entry in row["result"]["metrics"].items():
                sides.setdefault(row["side"], {}).setdefault(metric, []).append(entry["value"])
    return out


def param_set_name() -> str:
    return os.environ.get("REPRO_BENCH_PARAMS", "TOY")


@pytest.fixture(scope="session")
def bench_calibration():
    """Calibration at the set selected by REPRO_BENCH_PARAMS."""
    return calibrate(param_set_name(), vector_bits=40, policy_attributes=10, repetitions=1)
