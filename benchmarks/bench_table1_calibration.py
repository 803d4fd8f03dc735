"""Table 1 and §6.2: model parameters and the prototype's crypto constants —
paper values vs this reproduction's measurements.

Prints the one Table 1 (:func:`repro.perf.figures.format_table1`, also
``python -m repro table1``) from ONE :func:`repro.perf.calibrate` call
(the session-scoped ``bench_calibration`` fixture; TOY by default,
``REPRO_BENCH_PARAMS=PAPER`` for the full 512-bit measurement).
``perf/calibrate`` is the in-repo timer of these primitives; the
benchmark-side timer is the ladder of ``benchmarks/e2e``.  Nothing is
re-timed here, so there is no ``benchmark`` fixture: run this module
without ``--benchmark-only`` (which would skip it).
"""

from repro.perf.figures import format_table1


def test_table1_and_section62_report(bench_calibration, capsys):
    with capsys.disabled():
        print()
        print(format_table1(bench_calibration))
