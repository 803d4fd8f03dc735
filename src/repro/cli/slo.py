"""``slo``: error budgets, burn rates and alerts — one report (of a chaos
run or a deployment) or a refreshing view."""

from __future__ import annotations

import json

from ..obs.aggregate import TelemetryAggregator
from ..obs.slo import SloEngine, default_slos
from ..perf.report import format_table
from .telemetry import judge, sweep_once, watch, watch_parser


def _slo_row(name: str, entry: dict, counts: list[str], burns: list[float]) -> list[str]:
    """One row of the ``slo report`` and ``slo watch`` tables: the SLO's
    objective, good/bad ``counts``, budget left, ``burns`` and active alerts."""
    return [
        name,
        f"{entry['objective']:.2f}",
        *counts,
        f"{entry['error_budget_remaining']:.3f}",
        *(f"{burn:.2f}" for burn in burns),
        str(entry["active_alerts"]) if entry["active_alerts"] else "-",
    ]


def _print_slo_report(report: dict) -> None:
    rows = [
        _slo_row(
            name,
            entry,
            [str(entry["good"]), str(entry["bad"])],
            # the worst long-window burn
            [max((rates["long_burn"] for rates in entry["burn_rates"].values()), default=0.0)],
        )
        for name, entry in report["slos"].items()
    ]
    print(format_table(
        ["slo", "objective", "good", "bad", "budget left", "worst burn", "active"],
        rows,
        title=f"SLO report — evaluated at t={report['evaluated_at']:.2f}s",
    ))
    alerts = report.get("alerts", [])
    if not alerts:
        print("\nno burn-rate alerts fired")
        return
    print()
    print(format_table(
        ["slo", "severity", "window", "fired at", "cleared at"],
        [
            [
                alert["slo"], alert["severity"], alert["window"],
                f"{alert['fired_at']:.2f}",
                f"{alert['cleared_at']:.2f}"
                if alert["cleared_at"] is not None else "ACTIVE",
            ]
            for alert in alerts
        ],
        title="burn-rate alerts (fire→clear episodes)",
    ))


def _slo_report_doc(args) -> dict:
    """Build the SLO report document from whichever source was selected."""
    if args.chaos_report:
        with open(args.chaos_report) as handle:
            data = json.load(handle)
        doc = data.get("slo")
        if doc is None:
            raise SystemExit(
                f"{args.chaos_report} has no 'slo' section — rerun the chaos "
                "run with an alerting profile (e.g. --profile ci)"
            )
        return doc
    if args.chaos_seed is not None:
        from ..chaos import FaultSchedule, run_chaos

        schedule = None
        if args.no_faults:
            schedule = FaultSchedule(seed=args.chaos_seed, profile=args.profile)
        report = run_chaos(args.chaos_seed, args.profile, schedule=schedule)
        if report.slo is None:
            raise SystemExit(
                f"profile {args.profile!r} does not enable alerting — "
                "use --profile ci"
            )
        return report.slo

    # live mode: one telemetry sweep (running deployment or in-process
    # demo), judged by the wall-clock SLO set
    return judge(sweep_once(args), latency_threshold_s=args.latency_slo).report()


def _cmd_slo_report(args) -> None:
    doc = _slo_report_doc(args)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        _print_slo_report(doc)
    # CI gates: --expect-alert / --expect-clean turn the report into a
    # pass/fail check (see .github/workflows/ci.yml, job test-slo)
    fired = {alert["slo"] for alert in doc.get("alerts", [])}
    failures = []
    for slo in args.expect_alert:
        if slo not in fired:
            failures.append(f"expected an alert for SLO {slo!r}; none fired")
    if args.expect_clean and fired:
        failures.append(f"expected a clean run; alerts fired for {sorted(fired)}")
    if failures:
        for failure in failures:
            print(f"GATE FAIL: {failure}")
        raise SystemExit(1)
    if args.expect_alert or args.expect_clean:
        print("gate ok")


def _cmd_slo_watch(args) -> None:
    engine = SloEngine(default_slos(latency_threshold_s=args.latency_slo))

    def draw(iteration: int, run_t: float, _services: list[str]) -> None:
        rows = []
        for name, entry in engine.report(run_t)["slos"].items():
            fast = next(iter(entry["burn_rates"].values()))
            rows.append(_slo_row(
                name,
                entry,
                [f"{entry['good']}/{entry['bad']}"],
                [fast["short_burn"], fast["long_burn"]],
            ))
        print(format_table(
            ["slo", "obj", "good/bad", "budget left",
             "fast short", "fast long", "active"],
            rows,
            title=(
                f"repro slo watch — sweep {iteration + 1}/{args.iterations}, "
                f"t={run_t:.1f}s"
            ),
        ))
        active = engine.active_alerts()
        if active:
            for alert in active:
                labels = dict(alert.labels)
                where = f" ({labels['service']})" if "service" in labels else ""
                print(
                    f"ALERT {alert.severity}: {alert.slo}{where} "
                    f"window {alert.window}, firing since t={alert.fired_at:.1f}s"
                )
        else:
            print("no active alerts")

    watch(args, TelemetryAggregator(), engine, draw)


def register(sub) -> None:
    slo = sub.add_parser(
        "slo", help="service-level objectives: budgets, burn rates, alerts"
    )
    slo_sub = slo.add_subparsers(dest="slo_command", required=True)
    slo_report = slo_sub.add_parser(
        "report",
        help="one-shot SLO report: from a fresh chaos run (--chaos-seed), a "
             "saved chaos report (--chaos-report), a running deployment "
             "(--state), or an in-process demo deployment (no flags)",
    )
    slo_report.add_argument(
        "--state", metavar="FILE", default=None,
        help="judge a running multi-process deployment's telemetry",
    )
    slo_report.add_argument(
        "--chaos-report", metavar="FILE", default=None,
        help="read the 'slo' section of a saved chaos run report",
    )
    slo_report.add_argument(
        "--chaos-seed", type=int, default=None, metavar="N",
        help="run one seeded chaos run and report its SLO timeline",
    )
    slo_report.add_argument(
        "--profile", default="ci",
        help="chaos profile for --chaos-seed (must enable alerting; default: ci)",
    )
    slo_report.add_argument(
        "--no-faults", action="store_true",
        help="with --chaos-seed: run with an empty fault schedule "
             "(fault-free baseline for --expect-clean)",
    )
    slo_report.add_argument(
        "--latency-slo", type=float, default=2.5, metavar="SECONDS",
        help="delivery-latency threshold for live/demo mode (default: 2.5 — "
             "headroom for the real TOY-parameter crypto on a shared box)",
    )
    slo_report.add_argument("--json", action="store_true", help="emit JSON")
    slo_report.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the JSON report to PATH (CI artifact)",
    )
    slo_report.add_argument(
        "--expect-alert", action="append", default=[], metavar="SLO",
        help="exit 1 unless an alert fired for SLO (repeatable; CI gate)",
    )
    slo_report.add_argument(
        "--expect-clean", action="store_true",
        help="exit 1 if any alert fired (CI gate for fault-free runs)",
    )
    slo_report.set_defaults(func=_cmd_slo_report)

    slo_watch = watch_parser(
        slo_sub, "watch", "refreshing burn-rate / active-alert view",
        "--latency-slo", type=float, default=2.5, metavar="SECONDS",
        help="delivery-latency threshold (default: 2.5)",
    )
    slo_watch.set_defaults(func=_cmd_slo_watch)
