"""Cross-validation bench: analytic models vs full protocol simulation.

Not a paper figure, but the strongest internal-consistency evidence this
reproduction offers: the §6.2 models and a *running deployment* (real
ciphertexts, simulated network) are evaluated at the same operating
points and must agree within a band — the models are deliberately
worst-case, so the simulation comes in at or below them.

The latency band is six v1 records in ``BENCH_pr42.json``, under ``repro
perf gate --smoke``: ``sim_vs_model.<system>.<size>.sim_over_model`` for
each system (``baseline``, ``p3s``) and payload size (``1KB``,
``100KB``, ``1MB``) — the simulated latency over the modelled one,
floor 0.3 and ceiling 1.5 (the band asserted below).  The simulation
runs on modelled compute time, so the values are the same on every
machine.
``P3S_WRITE_BENCH=1`` writes the file.
"""

import pytest
from conftest import BenchRecord

from repro.crypto.group import PairingGroup
from repro.pbe.hve import HVE
from repro.pbe.serialize import serialize_hve_ciphertext
from repro.perf.latency import baseline_latency, p3s_latency
from repro.perf.params import ModelParams
from repro.perf.report import format_seconds, format_table
from repro.perf.validation import (
    simulate_baseline_latency,
    simulate_p3s_latency,
    simulate_p3s_throughput,
)

SIZES = [1_000, 100_000, 1_000_000]
LABELS = {1_000: "1KB", 100_000: "100KB", 1_000_000: "1MB"}
FLOOR, CEILING = 0.3, 1.5


def small_model() -> ModelParams:
    group = PairingGroup("TOY")
    hve = HVE(group)
    # the simulated schema (perf.validation): one 8-valued attribute, one
    # position; its ciphertext's size does not depend on the alphabet
    ciphertext = hve.encrypt(hve.setup(1)[0], [0], b"\x00" * 16)
    return ModelParams(
        num_subscribers=10,
        match_fraction=0.2,
        broker_threads=1,
        encrypted_metadata_bytes=len(serialize_hve_ciphertext(group, ciphertext)),
    )


def test_latency_model_vs_simulation(benchmark, capsys, bench_writer):
    params = small_model()

    def run_all():
        rows = []
        for size in SIZES:
            model_b = baseline_latency(size, params).total
            sim_b = simulate_baseline_latency(size, params, 10, 2).value
            model_p = p3s_latency(size, params).total
            sim_p = simulate_p3s_latency(size, params, 10, 2).value
            rows.append((size, model_b, sim_b, model_p, sim_p))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = [
        [
            f"{size//1000} KB",
            format_seconds(model_b),
            format_seconds(sim_b),
            format_seconds(model_p),
            format_seconds(sim_p),
        ]
        for size, model_b, sim_b, model_p, sim_p in rows
    ]
    with capsys.disabled():
        print()
        print(
            format_table(
                ["payload", "base model", "base sim", "P3S model", "P3S sim"],
                table,
                title="Model vs simulation — worst-case latency (N_s=10, f=20%)",
            )
        )
    for size, model_b, sim_b, model_p, sim_p in rows:
        assert FLOOR * model_b < sim_b < CEILING * model_b
        assert FLOOR * model_p < sim_p < CEILING * model_p
    bench_writer(
        "BENCH_pr42.json",
        suite="sim_vs_model",
        workload={
            "harness": "bench_sim_vs_model.test_latency_model_vs_simulation: TOY, "
            "N_s = 10, 2 matching, worst-case delivery latency",
        },
        records=[
            BenchRecord(
                f"sim_vs_model.{system}.{LABELS[size]}.sim_over_model",
                simulated / model,
                "ratio",
                direction="lower",
                floor=FLOOR,
                ceiling=CEILING,
            )
            for size, model_b, sim_b, model_p, sim_p in rows
            for system, model, simulated in (("baseline", model_b, sim_b), ("p3s", model_p, sim_p))
        ],
    )


def test_throughput_model_vs_simulation(benchmark, capsys):
    from repro.perf.throughput import p3s_throughput

    params = small_model()

    def run():
        model = p3s_throughput(1_000, params).total
        simulated = simulate_p3s_throughput(1_000, params, 10, 2, num_publications=8).value
        return model, simulated

    model, simulated = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print(
            f"\nthroughput at 1KB: model={model:.2f}/s, simulated={simulated:.2f}/s "
            f"(×{simulated / model:.2f})"
        )
    assert 0.3 * model < simulated < 3.0 * model
