"""Fig. 8 — end-to-end latency over payload size (a) and relative to baseline (b).

Asserts the paper's shape claims on the figure's one definition
(:data:`repro.perf.figures.FIGURES`; ``python -m repro fig8`` prints it),
at Table 1 constants and again with this repository's measured constants.
"""

from repro.perf.figures import latency_series
from repro.perf.params import PAPER_PARAMS


def test_fig8_latency_series(benchmark):
    base, p3s, ratio = benchmark(latency_series, PAPER_PARAMS)

    # paper claim: baseline has low latency for small payloads
    assert base[0] < p3s[0]
    # paper claim: P3S follows the baseline for large payloads
    assert abs(ratio[-1] - 1.0) < 0.1
    # paper claim: P3S exhibits a threshold for small payloads (flat region)
    assert abs(p3s[0] - p3s[1]) / p3s[0] < 0.05
    # §2 target: within 10× everywhere on this sweep
    assert max(ratio) < 10.0


def test_fig8_with_measured_constants(bench_calibration, benchmark):
    """Same figure with OUR measured crypto constants substituted."""
    params = bench_calibration.as_model_params(PAPER_PARAMS)
    base, p3s, ratio = benchmark(latency_series, params)
    # the qualitative shape must survive recalibration
    assert base[0] < p3s[0]
    assert abs(ratio[-1] - 1.0) < 0.1
    assert max(ratio) < 10.0
