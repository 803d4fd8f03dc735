"""Analytic models vs full protocol simulation: band agreement."""

import pytest

from repro.perf.latency import baseline_latency, p3s_latency
from repro.perf.params import ModelParams
from repro.perf.validation import (
    simulate_baseline_latency,
    simulate_p3s_latency,
    simulate_p3s_throughput,
)

# a small deployment both tractable to simulate and expressible in the model
SMALL = ModelParams(num_subscribers=10, match_fraction=0.2, broker_threads=1)


def small_model(payload_bytes):
    # substitute the real encrypted-metadata size the simulation will use
    # (n=3 bits → tiny) so the model and simulation describe the same system
    from repro.crypto.group import PairingGroup
    from repro.pbe.hve import HVE
    from repro.pbe.serialize import serialize_hve_ciphertext

    group = PairingGroup("TOY")
    hve = HVE(group)
    ciphertext = hve.encrypt(hve.setup(3)[0], [0, 1, 0], b"\x00" * 16)
    p_e = len(serialize_hve_ciphertext(group, ciphertext))
    return SMALL.with_(encrypted_metadata_bytes=p_e)


class TestLatencyAgreement:
    @pytest.mark.parametrize("payload", [1_000, 100_000])
    def test_p3s_simulation_within_band(self, payload):
        params = small_model(payload)
        model = p3s_latency(payload, params).total
        simulated = simulate_p3s_latency(payload, params, 10, 2).value
        # the model is a worst-case estimate; the simulation must come in
        # at the same order — within [0.3×, 1.5×] of the model
        assert 0.3 * model < simulated < 1.5 * model

    @pytest.mark.parametrize("payload", [1_000, 100_000])
    def test_baseline_simulation_within_band(self, payload):
        params = small_model(payload)
        model = baseline_latency(payload, params).total
        simulated = simulate_baseline_latency(payload, params, 10, 2).value
        assert 0.3 * model < simulated < 1.5 * model

    def test_relative_ordering_preserved(self):
        """P3S slower than baseline at small payloads — in both worlds."""
        params = small_model(1_000)
        assert p3s_latency(1_000, params).total > baseline_latency(1_000, params).total
        p3s_sim = simulate_p3s_latency(1_000, params, 10, 2).value
        base_sim = simulate_baseline_latency(1_000, params, 10, 2).value
        assert p3s_sim > base_sim

    def test_latency_grows_with_payload_in_simulation(self):
        params = small_model(1_000)
        small = simulate_p3s_latency(1_000, params, 6, 2).value
        large = simulate_p3s_latency(1_000_000, params, 6, 2).value
        assert large > small + 0.5  # ≥ ~0.8 s extra serialization at 10 Mbps


class TestThroughputAgreement:
    def test_sustained_load_achieves_model_order(self):
        """Achieved rate lands in the band of the model's bottleneck rate."""
        from repro.perf.throughput import p3s_throughput

        params = small_model(1_000)
        model_rate = p3s_throughput(1_000, params).total
        simulated = simulate_p3s_throughput(1_000, params, 10, 2, num_publications=8)
        assert 0.3 * model_rate < simulated.value < 3.0 * model_rate

    def test_all_publications_delivered(self):
        params = small_model(1_000)
        point = simulate_p3s_throughput(1_000, params, 6, 3, num_publications=5)
        assert point.num_matching == 3  # the helper asserts full delivery internally
