"""Counted bench records recomputed on this tree.

``repro perf gate --smoke`` judges each committed value against its own
bound and runs no code.  For a record that is an exact count or size,
these probes recompute it here, in well under a second, and fail when it
differs from the committed value or breaks the committed bound.  A change
that moves one re-records its file (``P3S_WRITE_BENCH=1 pytest
benchmarks/<its bench>``).
"""

import importlib.util
import os

from repro.crypto import randomness
from repro.crypto.group import PairingGroup
from repro.crypto.pke import PKEKeyPair, pke_overhead
from repro.perf.bench import load_bench_file

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def bench(name: str):
    """``benchmarks/<name>.py``, loaded to compute its records, not run."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "benchmarks", f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_is_committed(filename: str, name: str, fresh: float) -> None:
    """``fresh`` equals the committed record ``name`` and keeps its bounds."""
    (record,) = (r for r in load_bench_file(os.path.join(ROOT, filename)) if r.name == name)
    assert fresh == record.value, (name, fresh, record.value)
    assert record.ceiling is None or fresh <= record.ceiling, (name, fresh, record.ceiling)
    assert record.floor is None or fresh >= record.floor, (name, fresh, record.floor)


def test_a_token_request_pays_its_committed_g1_exp():
    token_request = bench("bench_token_request")
    fresh = token_request.counts()
    for name in (token_request.REPEAT, token_request.FIRST):
        assert_is_committed("BENCH_pr55.json", name, fresh[name])


def test_a_pke_ciphertext_carries_its_committed_overhead():
    group = PairingGroup("TOY")
    plaintext = b"(K_s, certificate, predicate)"
    with randomness.seeded(45):
        sealed = PKEKeyPair(group).public.encrypt(plaintext)
    for fresh in (pke_overhead(group), len(sealed) - len(plaintext)):
        assert_is_committed("BENCH_pr45.json", "pke.TOY.ciphertext_overhead_bytes", fresh)


def test_a_served_client_holds_its_committed_bytes():
    served_memory = bench("bench_served_memory")
    fresh, _ = served_memory.counts()
    assert len(fresh) == 3
    for name, value in fresh.items():
        assert_is_committed("BENCH_pr57.json", name, value)


def test_the_generator_comb_makes_its_committed_additions():
    generator_comb = bench("bench_generator_comb")
    fresh, parent = generator_comb.counts()
    assert len(fresh) == 2
    for name, value in fresh.items():
        assert_is_committed("BENCH_pr58.json", name, value)
        assert value <= parent[name]  # window 5's


def test_generator_window_is_the_sweeps():
    """``GENERATOR_WINDOW`` holds the window the committed sweep chose."""
    from repro.crypto.comb import GENERATOR_WINDOW

    records = load_bench_file(os.path.join(ROOT, "BENCH_pr58.json"))
    chosen = {record.name: record.value for record in records}
    for name in ("TOY", "PAPER"):
        assert GENERATOR_WINDOW[name] == chosen[f"generator_comb.{name}.window"], name
