"""Fig. 10 — throughput at f = 50%: the match-rate crossover.

"Increasing the match rate benefits P3S.  The baseline only disseminates
to subscribers who match, whereas P3S must disseminate to all of them,
and if more subscribers match, the baseline loses its advantage."
Asserted on the figure's one definition (``python -m repro fig10``
prints it) against Fig. 9's f = 5%.
"""

from repro.perf.figures import FIGURES, throughput_series
from repro.perf.params import MESSAGE_SIZES, PAPER_PARAMS


def test_fig10_throughput_f50(benchmark):
    base, p3s, ratio = benchmark(throughput_series, FIGURES["fig10"].params)
    _, _, ratio_f5 = throughput_series(PAPER_PARAMS)

    # at every size, f=50% treats P3S at least as well as f=5%
    assert all(r50 >= r5 - 1e-12 for r50, r5 in zip(ratio, ratio_f5))
    # near-parity arrives an order of magnitude earlier in payload size
    first_parity_f50 = next(m for m, r in zip(MESSAGE_SIZES, ratio) if r > 0.9)
    first_parity_f5 = next(m for m, r in zip(MESSAGE_SIZES, ratio_f5) if r > 0.9)
    assert first_parity_f50 <= first_parity_f5 / 5
    # combined conclusion: P3S within 10x except small payloads + low match rate
    assert all(r > 0.1 for m, r in zip(MESSAGE_SIZES, ratio) if m >= 10_000)
