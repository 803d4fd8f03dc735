"""Fig. 9 — throughput over payload size at f = 5% (a) and relative (b).

Asserts the f = 5% panels' shape on the figure's one definition
(``python -m repro fig9`` prints it): the limiting stage, the
small-payload penalty ("P3S performs worse than the baseline for small
payloads") and large-payload parity.
"""

from repro.perf.figures import throughput_series
from repro.perf.params import MESSAGE_SIZES, PAPER_PARAMS
from repro.perf.throughput import p3s_throughput, throughput_ratio


def test_fig9_throughput_f5(benchmark):
    base, p3s, ratio = benchmark(throughput_series, PAPER_PARAMS)
    bottlenecks = [p3s_throughput(m, PAPER_PARAMS).bottleneck for m in MESSAGE_SIZES]

    # flat small-payload region limited by the DS broadcast
    assert bottlenecks[0] == "r1_ds_broadcast"
    assert p3s[0] == p3s[1] == p3s[2]
    # large payloads: RS egress, parity with baseline
    assert bottlenecks[-1] == "r3_rs_egress"
    assert abs(ratio[-1] - 1.0) < 0.01
    # the small-payload/low-match-rate corner is where P3S loses
    assert ratio[0] < 0.1


def test_fig9_no_ns_dependence(benchmark):
    """Paper: the relative throughput does not depend on N_s for fixed f."""

    def ratios_across_ns():
        return {
            n: throughput_ratio(10_000, PAPER_PARAMS.with_(num_subscribers=n))
            for n in (25, 50, 100, 200, 400)
        }

    ratios = benchmark(ratios_across_ns)
    values = list(ratios.values())
    assert max(values) - min(values) < 1e-9
