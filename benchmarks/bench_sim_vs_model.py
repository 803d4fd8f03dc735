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
machine: :func:`latency_against_model` computes them, and
``tests/perf/test_validation.py`` loads this module to recompute them
against the committed file, so a change that moves them re-records it
(the module therefore imports ``BenchRecord`` from ``repro.perf.bench``,
not through ``conftest``).  ``P3S_WRITE_BENCH=1`` writes the file.
"""

from repro.crypto.group import PairingGroup
from repro.pbe.hve import HVE
from repro.pbe.serialize import serialize_hve_ciphertext
from repro.perf.bench import BenchRecord
from repro.perf.latency import baseline_latency, p3s_latency
from repro.perf.params import ModelParams
from repro.perf.report import format_seconds, format_table
from repro.perf.validation import (
    simulate_baseline_latency,
    simulate_p3s_latency,
    simulate_p3s_throughput,
)

PAYLOAD_LABELS = {1_000: "1KB", 100_000: "100KB", 1_000_000: "1MB"}
FLOOR, CEILING = 0.3, 1.5


def validation_params() -> ModelParams:
    """The deployment the records describe: N_s = 10, a fifth of them
    matching, one broker thread, and the size of the simulated schema's
    real HVE ciphertext (one position; its size does not depend on the
    alphabet)."""
    group = PairingGroup("TOY")
    hve = HVE(group)
    ciphertext = hve.encrypt(hve.setup(1)[0], [0], b"\x00" * 16)
    return ModelParams(
        num_subscribers=10,
        match_fraction=0.2,
        broker_threads=1,
        encrypted_metadata_bytes=len(serialize_hve_ciphertext(group, ciphertext)),
    )


def latency_against_model() -> dict[str, tuple[float, float]]:
    """``{"sim_vs_model.<system>.<size>.sim_over_model": (modelled,
    simulated)}``: the worst-case delivery latency of the baseline and of
    P3S at each of :data:`PAYLOAD_LABELS`, 2 of 10 subscribers matching."""
    params = validation_params()
    latencies = {}
    for size, label in PAYLOAD_LABELS.items():
        latencies[f"sim_vs_model.baseline.{label}.sim_over_model"] = (
            baseline_latency(size, params).total,
            simulate_baseline_latency(size, params, 10, 2).value,
        )
        latencies[f"sim_vs_model.p3s.{label}.sim_over_model"] = (
            p3s_latency(size, params).total,
            simulate_p3s_latency(size, params, 10, 2).value,
        )
    return latencies


def test_latency_model_vs_simulation(benchmark, capsys, bench_writer):
    latencies = benchmark.pedantic(latency_against_model, rounds=1, iterations=1)
    table = [
        [
            label,
            *(
                format_seconds(value)
                for system in ("baseline", "p3s")
                for value in latencies[f"sim_vs_model.{system}.{label}.sim_over_model"]
            ),
        ]
        for label in PAYLOAD_LABELS.values()
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
    for name, (model, simulated) in latencies.items():
        assert FLOOR * model < simulated < CEILING * model, name
    bench_writer(
        "BENCH_pr42.json",
        suite="sim_vs_model",
        workload={
            "harness": "bench_sim_vs_model.test_latency_model_vs_simulation: TOY, "
            "N_s = 10, 2 matching, worst-case delivery latency",
        },
        records=[
            BenchRecord(
                name, simulated / model, "ratio", direction="lower", floor=FLOOR, ceiling=CEILING
            )
            for name, (model, simulated) in latencies.items()
        ],
    )


def test_throughput_model_vs_simulation(benchmark, capsys):
    from repro.perf.throughput import p3s_throughput

    params = validation_params()

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
