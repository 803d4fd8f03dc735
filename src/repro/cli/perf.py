"""``perf gate``: the performance-regression gate over the committed
``BENCH_*.json`` history."""

from __future__ import annotations


def _cmd_perf_gate(args) -> None:
    from ..perf.gate import format_gate, run_gate

    report = run_gate(
        root=args.root,
        smoke=args.smoke,
        only=args.only or None,
    )
    print(format_gate(report))
    if not report.passed:
        raise SystemExit(1)


def register(sub) -> None:
    perf = sub.add_parser(
        "perf", help="performance trajectory tools (see docs/PERFORMANCE.md)"
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    perf_gate = perf_sub.add_parser(
        "gate",
        help="judge the committed BENCH_*.json history (smoke) and "
             "re-measure machine-independent ratios against it (fresh); "
             "non-zero exit on regression",
    )
    perf_gate.add_argument(
        "--root", default=".", metavar="DIR",
        help="directory holding the BENCH_*.json history (default: .)",
    )
    perf_gate.add_argument(
        "--smoke", action="store_true",
        help="history floor/ceiling checks only — no fresh measurements",
    )
    perf_gate.add_argument(
        "--only", action="append", metavar="PROBE",
        help="run only the named fresh probe(s): match, obs, prof",
    )
    perf_gate.set_defaults(func=_cmd_perf_gate)
