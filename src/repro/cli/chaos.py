"""``chaos``: seeded fault-injection runs with invariant checks, replayable
bit for bit, and the fault profiles they draw from."""

from __future__ import annotations

from ..perf.report import format_table


def _cmd_chaos_run(args) -> None:
    from ..chaos import FaultSchedule, minimize, run_chaos

    schedule = None
    if args.schedule:
        with open(args.schedule) as handle:
            schedule = FaultSchedule.from_json(handle.read())
    report = run_chaos(args.seed, args.profile, schedule=schedule)
    rows = [
        [result.family, result.name, "pass" if result.passed else "FAIL",
         result.detail if not result.passed else ""]
        for result in report.invariants
    ]
    print(format_table(
        ["family", "invariant", "verdict", "detail"],
        rows,
        title=f"chaos run — seed {args.seed}, profile {report.profile}",
    ))
    applied = sum(entry["count"] for entry in report.applied_faults)
    print(f"\nfaults scheduled: {len(report.schedule['faults'])}, "
          f"frames faulted: {applied}")
    for entry in report.applied_faults:
        print(f"  fault #{entry['fault']}: {entry['kind']} "
              f"{entry['src']}->{entry['dst']} x{entry['count']}")
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(report.to_json() + "\n")
        print(f"wrote report to {args.report}")
    if report.passed:
        print("\nall invariants hold")
        return
    print(f"\n{len(report.failures())} invariant(s) violated")
    if args.minimize:
        minimal, minimal_report = minimize(args.seed, args.profile, schedule=schedule)
        print(f"minimized schedule: {len(minimal.faults)} fault(s) suffice to reproduce")
        print(minimal.to_json())
        if args.min_out:
            with open(args.min_out, "w") as handle:
                handle.write(minimal.to_json() + "\n")
            print(f"wrote minimized schedule to {args.min_out}")
    raise SystemExit(1)


def _cmd_chaos_profiles(args) -> None:
    from ..chaos import PROFILES

    rows = [
        [p.name, str(p.n_faults), ",".join(p.kinds),
         f"{p.subscribers}x{p.publications}", "yes" if p.durable else "no",
         f"{p.ds_shards}DSx{p.rs_shards}RS r{p.rs_replication}"]
        for p in PROFILES.values()
    ]
    print(format_table(
        ["profile", "faults", "kinds", "subs x pubs", "durable", "topology"],
        rows,
        title="chaos fault profiles",
    ))


def register(sub) -> None:
    chaos = sub.add_parser("chaos", help="seeded fault injection + invariant checks")
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    chaos_run = chaos_sub.add_parser(
        "run",
        help="one seeded chaos run: derive workload + fault schedule from the "
             "seed, execute with injection, check the invariant catalogue",
    )
    chaos_run.add_argument("--seed", type=int, required=True)
    chaos_run.add_argument(
        "--profile", default="default",
        help="fault profile (see 'chaos profiles'; default: default)",
    )
    chaos_run.add_argument(
        "--schedule", metavar="FILE", default=None,
        help="replay a serialized schedule instead of generating one",
    )
    chaos_run.add_argument(
        "--report", metavar="PATH", default=None,
        help="write the full JSON run report to PATH",
    )
    chaos_run.add_argument(
        "--minimize", action="store_true",
        help="on failure, greedily shrink the schedule to a 1-minimal "
             "failing fault set",
    )
    chaos_run.add_argument(
        "--min-out", metavar="PATH", default=None,
        help="write the minimized schedule JSON to PATH (with --minimize)",
    )
    chaos_run.set_defaults(func=_cmd_chaos_run)
    chaos_profiles = chaos_sub.add_parser("profiles", help="list fault profiles")
    chaos_profiles.set_defaults(func=_cmd_chaos_profiles)
