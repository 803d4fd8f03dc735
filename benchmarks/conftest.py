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
* ``P3S_PR20_RUNS`` — the directory of parent/change harness runs
  ``bench_publisher_floor.py`` turns into records (it skips without it).
* ``P3S_PR24_RUNS`` — likewise for ``bench_key_tables.py`` (it measures
  and asserts without it, and writes ``BENCH_pr24.json`` only with it).
"""

import os
import pathlib
import sys

import pytest

from repro.perf.bench import BenchRecord, write_bench
from repro.perf.calibrate import calibrate

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
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
    """Write ``BENCH_<x>.json`` at the repo root iff ``P3S_WRITE_BENCH=1``;
    returns the written path, or ``None`` when nothing was written."""
    if not os.environ.get("P3S_WRITE_BENCH"):
        return None
    target = REPO_ROOT / filename
    write_bench(str(target), suite, records, workload=workload, seed=seed)
    return target


@pytest.fixture()
def bench_writer():
    """``bench_writer(filename, suite, records, workload=..., seed=...)`` —
    the one way a bench commits numbers (see :func:`write_repo_bench`)."""
    return write_repo_bench


def param_set_name() -> str:
    return os.environ.get("REPRO_BENCH_PARAMS", "TOY")


@pytest.fixture(scope="session")
def bench_calibration():
    """Calibration at the set selected by REPRO_BENCH_PARAMS."""
    return calibrate(param_set_name(), vector_bits=40, policy_attributes=10, repetitions=1)
