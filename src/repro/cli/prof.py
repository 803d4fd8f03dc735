"""``prof``: record, report, diff and merge profiles, and the crypto cost
ledger (see docs/OBSERVABILITY.md)."""

from __future__ import annotations

import json
import os

from ..obs import Observability
from ..perf.calibrate import calibrate
from .paper import add_params
from .telemetry import sweep_once


def _write_profile(profile, out: str, force: bool) -> None:
    """Write a profile as speedscope JSON (or ``.folded`` text by suffix).

    Refuses to clobber an existing recording unless ``--force`` — a
    before/after diff workflow lives or dies on not losing the "before".
    """
    if os.path.exists(out) and not force:
        raise SystemExit(f"refusing to overwrite {out} (pass --force)")
    if out.endswith(".folded"):
        with open(out, "w") as handle:
            handle.write(profile.folded())
        return
    with open(out, "w") as handle:
        json.dump(profile.to_speedscope(name=os.path.basename(out)), handle, indent=2)
        handle.write("\n")


def _cmd_prof_record(args) -> None:
    from ..obs.prof import format_report, record_demo

    profile, stats = record_demo(
        publications=args.publications,
        seed=args.seed,
        mode=args.mode,
        every=args.every,
        hz=args.hz,
    )
    if args.out:
        _write_profile(profile, args.out, args.force)
        print(
            f"recorded {args.mode} profile of {stats['publications']} publications "
            f"(seed {stats['seed']}, {stats['delivered']} delivered) -> {args.out}"
        )
    print(format_report(profile, limit=args.limit))


def _cmd_prof_report(args) -> None:
    from ..obs.prof import format_report, load_profile

    print(format_report(load_profile(args.profile), limit=args.limit))


def _cmd_prof_diff(args) -> None:
    from ..obs.prof import diff_profiles, format_diff, load_profile

    before = load_profile(args.before)
    after = load_profile(args.after)
    deltas = diff_profiles(before, after, normalize=not args.absolute)
    print(format_diff(deltas, limit=args.limit, normalized=not args.absolute))


def _cmd_prof_ledger(args) -> None:
    from ..obs.prof import cost_ledger, format_ledger
    from ..obs.prof.workload import run_demo_workload

    obs = Observability()
    stats = run_demo_workload(args.publications, seed=args.seed, obs=obs)
    calibration = calibrate(
        args.params, vector_bits=8, policy_attributes=4, repetitions=1
    )
    rows = cost_ledger(obs.metrics, calibration)
    print(
        f"demo workload: {stats['publications']} publications (seed "
        f"{stats['seed']}), {stats['delivered']} delivered; calibration "
        f"{args.params}"
    )
    print(format_ledger(rows))


def _cmd_prof_top(args) -> None:
    from ..obs.prof import format_report

    # in-process: let the background publisher give the sampler something to see
    aggregator = sweep_once(args, warmup_s=0.0 if args.state else args.warmup)
    origins = aggregator.profile_origins()
    if not origins:
        raise SystemExit(
            "no profiles scraped — no reachable service has a sampler attached "
            "(every `live serve-*` process starts one)"
        )
    merged = aggregator.merged_profile()
    print(
        "profiles from: "
        + ", ".join(
            f"{origin} ({'+'.join(sorted(names))})" for origin, names in sorted(origins.items())
        )
    )
    print(format_report(merged, limit=args.limit))
    if args.out:
        _write_profile(merged, args.out, args.force)
        print(f"merged profile -> {args.out}")


def register(sub) -> None:
    prof = sub.add_parser(
        "prof", help="continuous profiling (see docs/OBSERVABILITY.md)"
    )
    prof_sub = prof.add_subparsers(dest="prof_command", required=True)

    prof_record = prof_sub.add_parser(
        "record",
        help="profile the seeded demo workload and write a speedscope "
             "(or .folded) recording",
    )
    prof_record.add_argument(
        "--mode", choices=("det", "wall"), default="det",
        help="det: deterministic op-count sampling (seed-replayable); "
             "wall: background stack sampler (default: det)",
    )
    prof_record.add_argument("--publications", type=int, default=50, metavar="N")
    prof_record.add_argument("--seed", type=int, default=0)
    prof_record.add_argument(
        "--every", type=int, default=8, metavar="OPS",
        help="det mode: one sample per OPS instrumented crypto ops",
    )
    prof_record.add_argument(
        "--hz", type=float, default=97.0,
        help="wall mode: sampling frequency",
    )
    prof_record.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the recording (speedscope JSON, or collapsed-stack "
             "text when FILE ends in .folded)",
    )
    prof_record.add_argument(
        "--force", action="store_true",
        help="overwrite an existing --out file",
    )
    prof_record.add_argument("--limit", type=int, default=15, metavar="N")
    prof_record.set_defaults(func=_cmd_prof_record)

    prof_report = prof_sub.add_parser(
        "report", help="hot-frames report of a recorded profile"
    )
    prof_report.add_argument("profile", help="speedscope JSON or .folded recording")
    prof_report.add_argument("--limit", type=int, default=20, metavar="N")
    prof_report.set_defaults(func=_cmd_prof_report)

    prof_diff = prof_sub.add_parser(
        "diff", help="rank self-time deltas between two recordings"
    )
    prof_diff.add_argument("before", help="baseline recording")
    prof_diff.add_argument("after", help="candidate recording")
    prof_diff.add_argument(
        "--absolute", action="store_true",
        help="raw weight deltas instead of per-profile-normalized shares",
    )
    prof_diff.add_argument("--limit", type=int, default=20, metavar="N")
    prof_diff.set_defaults(func=_cmd_prof_diff)

    prof_ledger = prof_sub.add_parser(
        "ledger",
        help="crypto cost ledger: modeled (count x calibrated cost) vs "
             "measured self time per component",
    )
    prof_ledger.add_argument("--publications", type=int, default=20, metavar="N")
    prof_ledger.add_argument("--seed", type=int, default=0)
    add_params(prof_ledger)
    prof_ledger.set_defaults(func=_cmd_prof_ledger)

    prof_top = prof_sub.add_parser(
        "top",
        help="scrape live services' profiles, merge, and report hot frames",
    )
    prof_top.add_argument(
        "--state", metavar="FILE", default=None,
        help="scrape a running multi-process deployment; omit for a "
             "self-driving in-process deployment",
    )
    prof_top.add_argument(
        "--warmup", type=float, default=1.5, metavar="SECONDS",
        help="in-process mode: traffic time before the scrape",
    )
    prof_top.add_argument(
        "--out", metavar="FILE", default=None,
        help="also write the merged profile (speedscope JSON / .folded)",
    )
    prof_top.add_argument("--force", action="store_true", help="overwrite --out")
    prof_top.add_argument("--limit", type=int, default=20, metavar="N")
    prof_top.set_defaults(func=_cmd_prof_top)
