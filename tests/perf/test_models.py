"""Analytic model tests: Fig. 8-10 shapes and the paper's stated conclusions."""

import pytest

from repro.perf.latency import baseline_latency, latency_ratio, p3s_latency
from repro.perf.params import MESSAGE_SIZES, PAPER_PARAMS, ModelParams
from repro.perf.throughput import baseline_throughput, p3s_throughput, throughput_ratio


class TestLatencyModel:
    def test_baseline_components(self):
        breakdown = baseline_latency(10_000, PAPER_PARAMS)
        # t1 = 45 ms + 8 ms serialization
        assert breakdown.components["t1"] == pytest.approx(0.053)
        # t2 = 0.05 ms × 100
        assert breakdown.components["t2"] == pytest.approx(0.005)
        # t3 = 5 matching subscribers × t1
        assert breakdown.components["t3"] == pytest.approx(5 * 0.053)

    def test_p3s_metadata_path_dominates_small_payloads(self):
        """Fig. 8: 'for small payloads P3S exhibits a threshold' — the DS
        broadcast of P_E to all N_s subscribers."""
        breakdown = p3s_latency(1_000, PAPER_PARAMS)
        assert breakdown.components["t_f"] > breakdown.components["t_b"]
        assert breakdown.components["t_f2"] > 0.5 * breakdown.components["t_f"]

    def test_p3s_follows_baseline_for_large_payloads(self):
        """Fig. 8(a): 'The P3S system follows the baseline for large
        payloads' — serialization dominates."""
        for size in (10_000_000, 100_000_000):
            assert latency_ratio(size, PAPER_PARAMS) == pytest.approx(1.0, abs=0.05)

    def test_within_ten_times_everywhere(self):
        """§2 performance target + Fig. 8(b): within 10× of baseline."""
        for size in MESSAGE_SIZES:
            assert latency_ratio(size, PAPER_PARAMS) < 10.0

    def test_ratio_decreases_toward_parity(self):
        """The advantage of the baseline shrinks with payload size until the
        two systems converge (after which the ratio hovers at ~1)."""
        ratios = [latency_ratio(size, PAPER_PARAMS) for size in MESSAGE_SIZES]
        converged = False
        for previous, current in zip(ratios, ratios[1:]):
            if abs(previous - 1.0) < 0.05:
                converged = True
            if not converged:
                assert current < previous
            else:
                assert current == pytest.approx(1.0, abs=0.1)

    def test_p3s_worst_case_uses_slower_path(self):
        breakdown = p3s_latency(50_000_000, PAPER_PARAMS)
        assert breakdown.total == pytest.approx(
            max(breakdown.components["t_f"], breakdown.components["t_b"])
            + breakdown.components["t_r"]
        )


class TestThroughputModel:
    def test_baseline_bandwidth_bound(self):
        """'bandwidth is the dominant factor in the baseline.'"""
        assert baseline_throughput(100_000, PAPER_PARAMS).bottleneck == "r2_egress"

    def test_p3s_small_payload_flat(self):
        """Fig. 9: 'P3S performance flattens because regardless of the
        payload size, the DS must send the PBE encrypted metadata to each
        of the 100 subscribers.'"""
        small = p3s_throughput(1_000, PAPER_PARAMS)
        also_small = p3s_throughput(10_000, PAPER_PARAMS)
        assert small.bottleneck == "r1_ds_broadcast"
        assert small.total == pytest.approx(also_small.total)

    def test_p3s_large_payload_rs_bound(self):
        """'it is the bandwidth out of the RS that limits the throughput.'"""
        assert p3s_throughput(10_000_000, PAPER_PARAMS).bottleneck == "r3_rs_egress"

    def test_large_payload_parity(self):
        """Fig. 9: 'almost exactly the same behavior as the baseline for
        large payloads.'"""
        for size in (3_000_000, 30_000_000):
            assert throughput_ratio(size, PAPER_PARAMS) == pytest.approx(1.0, abs=0.01)

    def test_small_payload_low_match_rate_is_the_weak_spot(self):
        """'P3S performs worse than the baseline for small payloads.'"""
        assert throughput_ratio(1_000, PAPER_PARAMS) < 0.1

    def test_higher_match_rate_benefits_p3s(self):
        """Fig. 10: 'increasing the match rate benefits P3S.'"""
        f50 = PAPER_PARAMS.with_(match_fraction=0.5)
        for size in (1_000, 10_000, 100_000):
            assert throughput_ratio(size, f50) > throughput_ratio(size, PAPER_PARAMS)

    def test_ratio_independent_of_subscriber_count(self):
        """'P3S throughput relative to the baseline shows no dependence on
        the number of subscribers for a fixed matching rate f.'"""
        for n in (50, 100, 400):
            params = PAPER_PARAMS.with_(num_subscribers=n)
            # in the bandwidth-bound regime the ratio is m·f/P_E, N_s-free
            assert throughput_ratio(10_000, params) == pytest.approx(
                throughput_ratio(10_000, PAPER_PARAMS)
            )

    def test_bandwidth_helps_both_equally(self):
        """'increasing the network bandwidth from 10 to 100 Mbps helps both
        systems equally.'"""
        fast = PAPER_PARAMS.with_(bandwidth_bps=100_000_000)
        assert throughput_ratio(10_000, fast) == pytest.approx(
            throughput_ratio(10_000, PAPER_PARAMS)
        )

    def test_hierarchical_dissemination_lifts_small_payload_throughput(self):
        """§6.2 extension: a relay tree removes the DS broadcast bottleneck."""
        flat = p3s_throughput(1_000, PAPER_PARAMS)
        tree = p3s_throughput(1_000, PAPER_PARAMS, relay_fanout=10)
        assert tree.total == pytest.approx(flat.total * 10)

    def test_relay_fanout_capped_at_subscribers(self):
        assert p3s_throughput(1_000, PAPER_PARAMS, relay_fanout=1000).total == pytest.approx(
            p3s_throughput(1_000, PAPER_PARAMS).total
        )


class TestModelParams:
    def test_ser(self):
        assert PAPER_PARAMS.ser(10_000) == pytest.approx(0.008)
        assert PAPER_PARAMS.ser(10_000, 100_000_000) == pytest.approx(0.0008)

    def test_cpabe_size_formula(self):
        # c_A = 2·V·k + m = 2·10·48 + m
        assert PAPER_PARAMS.cpabe_ciphertext_bytes(1000) == 960 + 1000

    def test_with_override(self):
        assert PAPER_PARAMS.with_(match_fraction=0.5).match_fraction == 0.5
        assert PAPER_PARAMS.match_fraction == 0.05
