"""The paper's evaluation: ``table1``, ``fig8|fig9|fig10`` and the
``calibrate`` run behind them."""

from __future__ import annotations

from ..crypto.params import PARAM_SETS
from ..perf.calibrate import calibrate
from ..perf.figures import FIGURES, format_figure, format_table1
from ..perf.report import format_seconds, format_size


def add_params(parser) -> None:
    """``-p/--params``: the pairing parameter set a command calibrates at."""
    parser.add_argument(
        "-p", "--params", default="TOY", choices=list(PARAM_SETS),
        help="calibration parameter set (default: TOY)",
    )


def _cmd_table1(args) -> None:
    print(format_table1(
        calibrate(args.params, vector_bits=40, policy_attributes=10, repetitions=1)
    ))


def _cmd_calibrate(args) -> None:
    result = calibrate(
        args.params, vector_bits=args.vector_bits, policy_attributes=10, repetitions=args.reps
    )
    for field_name in (
        "pairing_s", "pbe_encrypt_s", "pbe_match_s", "pbe_token_gen_s",
        "cpabe_encrypt_s", "cpabe_decrypt_s", "pke_op_s",
    ):
        print(f"{field_name:18s} {format_seconds(getattr(result, field_name))}")
    print(f"{'P_E':18s} {format_size(result.encrypted_metadata_bytes)}")
    print(f"{'c_A overhead':18s} {format_size(result.cpabe_overhead_bytes)}")


def register(sub) -> None:
    table1 = sub.add_parser("table1", help="Table 1 with measured constants")
    add_params(table1)
    table1.set_defaults(func=_cmd_table1)

    for name, figure in FIGURES.items():
        sub.add_parser(name, help=f"regenerate {name}").set_defaults(
            func=lambda args, figure=figure: print(format_figure(figure))
        )

    cal = sub.add_parser("calibrate", help="measure crypto constants")
    add_params(cal)
    cal.add_argument("--vector-bits", type=int, default=40)
    cal.add_argument("--reps", type=int, default=1)
    cal.set_defaults(func=_cmd_calibrate)
