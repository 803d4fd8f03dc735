"""Table 1 and Figs. 8-10, each defined once.

``repro table1|fig8|fig9|fig10`` print them, and the benches assert the
paper's shapes on the same series.  A series runs over
:data:`~repro.perf.params.MESSAGE_SIZES` at the paper's constants (or at
any :class:`~repro.perf.params.ModelParams`, e.g. measured ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .calibrate import CalibrationResult
from .latency import baseline_latency, latency_ratio, p3s_latency
from .params import MESSAGE_SIZES, PAPER_PARAMS, ModelParams
from .plot import ascii_plot
from .report import format_rate, format_seconds, format_size, format_table, series_table
from .throughput import baseline_throughput, p3s_throughput, throughput_ratio

__all__ = [
    "FIGURES", "Figure", "format_figure", "format_table1", "latency_series",
    "throughput_series",
]

# a figure's curves: panel (a)'s baseline and P3S, panel (b)'s P3S/baseline ratio
Series = tuple[list[float], list[float], list[float]]


def latency_series(params: ModelParams) -> Series:
    """Fig. 8: end-to-end latency (s) of one publication."""
    return (
        [baseline_latency(m, params).total for m in MESSAGE_SIZES],
        [p3s_latency(m, params).total for m in MESSAGE_SIZES],
        [latency_ratio(m, params) for m in MESSAGE_SIZES],
    )


def throughput_series(params: ModelParams) -> Series:
    """Figs. 9 and 10: publications per second at ``params.match_fraction``."""
    return (
        [baseline_throughput(m, params).total for m in MESSAGE_SIZES],
        [p3s_throughput(m, params).total for m in MESSAGE_SIZES],
        [throughput_ratio(m, params) for m in MESSAGE_SIZES],
    )


@dataclass(frozen=True)
class Figure:
    """One figure: its series at its operating point, and how it prints."""

    label: str
    caption: str
    series: Callable[[ModelParams], Series]
    params: ModelParams
    value_format: Callable[[float], str]
    ratio_format: str
    y_label: str


FIGURES = {
    "fig8": Figure(
        "Fig. 8", "end-to-end latency, ℬ = 10 Mbps", latency_series, PAPER_PARAMS,
        format_seconds, ".2f", "latency (s), log scale",
    ),
    "fig9": Figure(
        "Fig. 9", "throughput, f = 5%", throughput_series, PAPER_PARAMS,
        format_rate, ".3f", "publications/s, log scale",
    ),
    "fig10": Figure(
        "Fig. 10", "throughput, f = 50%", throughput_series,
        PAPER_PARAMS.with_(match_fraction=0.5),
        format_rate, ".3f", "publications/s, log scale",
    ),
}


def format_figure(figure: Figure) -> str:
    """Both panels as text: the series table, then panel (a)'s log-log plot."""
    base, p3s, ratio = figure.series(figure.params)
    table = series_table(
        MESSAGE_SIZES,
        {"baseline": base, "P3S": p3s, "ratio(b)": ratio},
        formatters={
            "baseline": figure.value_format,
            "P3S": figure.value_format,
            "ratio(b)": figure.ratio_format,
        },
        title=f"{figure.label} — {figure.caption}",
    )
    plot = ascii_plot(
        MESSAGE_SIZES,
        {"baseline": base, "P3S": p3s},
        title=f"{figure.label}(a)",
        y_label=figure.y_label,
    )
    return f"{table}\n\n{plot}"


def format_table1(measured: CalibrationResult) -> str:
    """Table 1 and the §6.2 micro-measurements: the paper's value beside
    this reproduction's, all from one calibration."""
    p = PAPER_PARAMS
    table1 = [
        ["ℓ (network latency)", "45 ms", "45 ms (simulated)"],
        ["ℬ (network bandwidth)", "10 Mbps", "10 Mbps (simulated)"],
        ["P (metadata spec)", "40 bits", f"{measured.vector_bits} bits"],
        ["P_E (PBE-encrypted metadata)", "10 KB", format_size(measured.encrypted_metadata_bytes)],
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
    # the same calibration's remaining constants (half-wildcard token)
    section62 = [
        ["PBE match, token's first query", "-", format_seconds(measured.pbe_match_cold_s)],
        ["PBE encrypt, key's first use", "-", format_seconds(measured.pbe_encrypt_cold_s)],
        ["PBE token generation", "-", format_seconds(measured.pbe_token_gen_s)],
        ["PKE operation", "-", format_seconds(measured.pke_op_s)],
        ["pairing (1 op)", "-", format_seconds(measured.pairing_s)],
        [f"token ({measured.vector_bits // 2} positions)", "-", format_size(measured.token_bytes)],
    ]
    header = ["parameter", "paper", f"measured ({measured.param_set})"]
    return "\n\n".join([
        format_table(header, table1, title="Table 1 — performance-model parameters"),
        format_table(header, section62, title="§6.2 crypto micro-measurements"),
    ])
