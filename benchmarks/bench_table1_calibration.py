"""Table 1 and §6.2: model parameters and the prototype's crypto constants —
paper values vs this reproduction's measurements.

Both tables come from ONE :func:`repro.perf.calibrate` call (the
session-scoped ``bench_calibration`` fixture; TOY by default,
``REPRO_BENCH_PARAMS=PAPER`` for the full 512-bit measurement).
``perf/calibrate`` is the in-repo timer of these primitives; the
benchmark-side timer is the ladder of ``benchmarks/e2e``.  Nothing is
re-timed here, so there is no ``benchmark`` fixture: run this module
without ``--benchmark-only`` (which would skip it).
"""

from repro.perf.params import PAPER_PARAMS
from repro.perf.report import format_seconds, format_size, format_table


def test_table1_and_section62_report(bench_calibration, capsys):
    measured = bench_calibration
    p = PAPER_PARAMS

    table1 = [
        ["ℓ (network latency)", "45 ms", "45 ms (simulated)"],
        ["ℬ (network bandwidth)", "10 Mbps", "10 Mbps (simulated)"],
        ["P (metadata spec)", "40 bits", f"{measured.vector_bits} bits"],
        [
            "P_E (PBE-encrypted metadata)",
            "10 KB",
            format_size(measured.encrypted_metadata_bytes),
        ],
        [
            "c_A (CP-ABE overhead, 2Vk)",
            format_size(2 * p.policy_attributes * p.security_parameter_bits // 8),
            format_size(measured.cpabe_overhead_bytes),
        ],
        ["N_s (subscribers)", "100", "100 (model)"],
        ["f (match fraction)", "5 %", "5 % (model)"],
        ["V (policy attributes)", "10", str(measured.policy_attributes)],
        ["enc_P (PBE encrypt)", "≈30 ms", format_seconds(measured.pbe_encrypt_s)],
        ["t_PBE (PBE match)", "≈38 ms", format_seconds(measured.pbe_match_s)],
        ["enc_C (CP-ABE encrypt)", "≈3 ms", format_seconds(measured.cpabe_encrypt_s)],
        ["dec_C (CP-ABE decrypt)", "≈12 ms", format_seconds(measured.cpabe_decrypt_s)],
    ]
    # the same calibration's remaining constants (half-wildcard token, n = 40)
    section62 = [
        ["PBE match, token's first query", "-", format_seconds(measured.pbe_match_cold_s)],
        ["PBE encrypt, key's first use", "-", format_seconds(measured.pbe_encrypt_cold_s)],
        ["PBE token generation", "-", format_seconds(measured.pbe_token_gen_s)],
        ["PKE operation", "-", format_seconds(measured.pke_op_s)],
        ["pairing (1 op)", "-", format_seconds(measured.pairing_s)],
    ]
    header = ["parameter", "paper", f"measured ({measured.param_set})"]
    with capsys.disabled():
        print()
        print(format_table(header, table1, title="Table 1 — performance-model parameters"))
        print()
        print(format_table(header, section62, title="§6.2 crypto micro-measurements"))
