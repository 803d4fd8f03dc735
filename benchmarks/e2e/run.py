#!/usr/bin/env python3
"""The P3S benchmark: one publication's life on live TCP and the simulator.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--smoke] [--out DIR]
    python3 benchmarks/e2e/run.py --check-agreement A.json B.json

With ``--workload`` it runs that workload once and prints, as the last
line of standard output, one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` — the end-to-end metrics of ``BENCHMARK.json``
for ``--trace 0``, the per-layer ones for ``--trace 1``.  Without it,
every workload runs in a process of its own (untraced, and traced too
under ``--trace``) and the last line holds all of their results.  See
README.md in this directory for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CONTRACT = os.path.join(ROOT, "BENCHMARK.json")
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("benchmarks/e2e: the program under test (src/repro) is not in this checkout")
sys.path.insert(0, os.path.join(ROOT, "src"))

from drivers import execute  # noqa: E402
from ladder import run_ladder  # noqa: E402
from report import (  # noqa: E402
    end_to_end,
    failures,
    format_metrics,
    format_waterfall,
    per_layer,
)
from tracing import Tracer, write_jsonl  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

# a traced run also climbs the ladder and writes its spans out, so its
# measured phases get this share of --seconds
TRACED_SECONDS_SHARE = 0.75


def load_contract() -> dict:
    with open(CONTRACT, encoding="utf-8") as handle:
        return json.load(handle)


def _as_result(metrics: dict, declared: list[dict]) -> dict:
    return {
        entry["name"]: {"value": metrics[entry["name"]][0], "unit": metrics[entry["name"]][1]}
        for entry in declared
    }


def _ladder_of(path: str) -> dict:
    """The ladder rungs an earlier traced run of this commit measured."""
    with open(path, encoding="utf-8") as handle:
        metrics = json.load(handle)["metrics"]
    return {
        name: (entry["value"], entry["unit"])
        for name, entry in metrics.items()
        if name.startswith("ladder.")
    }


def run_one(args, contract: dict) -> int:
    """Run one workload in this process; returns the exit code."""
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace) or args.smoke
    seconds = args.seconds * (TRACED_SECONDS_SHARE if traced else 1.0)
    inputs = generate(workload, args.seed, seconds, smoke=args.smoke)
    os.makedirs(args.out, exist_ok=True)
    tracer = Tracer() if traced else None
    m, oracle = execute(
        inputs, args.out, tracer, setup_repeats=1 if traced else workload.setup_repeats
    )
    attempted, failed = failures(m, oracle)
    correct = not oracle.wrong and not oracle.missing()

    result_metrics: dict = {}
    details: dict = {}
    print(f"== {workload.name} (seed {args.seed}, {args.seconds:g} s"
          f"{', traced' if traced else ''}{', smoke' if args.smoke else ''}) ==")
    if not args.trace or args.smoke:
        metrics, details = end_to_end(inputs, m, oracle)
        print(format_metrics(
            "end to end (times corrected to reference machine speed)",
            metrics, contract["end_to_end"], details["as_measured"],
        ))
        print(
            f"  machine speed factor {details['speed_factor']:.3f} "
            "(reference unit time / unit time during this run)"
        )
        print(
            f"  deliver_ms_tail is p{details['tail_percentile']} of "
            f"{details['latency_samples']} publications; on time means within "
            f"{details['latency_limit_ms']:g} ms; failed_share "
            f"{details['failed_share']:.4f} ({failed} of {attempted})"
        )
        result_metrics.update(_as_result(metrics, contract["end_to_end"]))
    if traced:
        if args.ladder_from:
            ladder_metrics = _ladder_of(args.ladder_from)
        else:
            ladder_metrics = run_ladder(args.seed, args.out, smoke=args.smoke)
        metrics, waterfall = per_layer(m, tracer, ladder_metrics)
        write_jsonl(tracer, os.path.join(args.out, f"trace-{workload.name}.jsonl"))
        print(format_metrics("per layer", metrics, contract["per_layer"]))
        print(format_waterfall(waterfall))
        result_metrics.update(_as_result(metrics, contract["per_layer"]))
    for line in oracle.wrong:
        print(f"WRONG DELIVERY: {line}")
    for index, name in oracle.missing():
        print(f"MISSING DELIVERY: publication {index} to {name}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    record = dict(
        result,
        workload=workload.name,
        seed=args.seed,
        seconds=args.seconds,
        trace=int(traced),
        smoke=args.smoke,
        details=details,
    )
    suffix = "-trace" if traced else ""
    with open(os.path.join(args.out, f"result-{workload.name}{suffix}.json"), "w") as out:
        json.dump(record, out, indent=1)
    print(json.dumps(result))
    return 0 if correct and failed == 0 else 1


def run_all(args) -> int:
    """Run every workload, each in a fresh interpreter so peak memory,
    caches and reaped children are that workload's own."""
    combined: dict = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    passes = [("end_to_end", 0)] + [("per_layer", 1)] * bool(args.trace)
    if args.smoke:
        passes = [("smoke", 1)]
    ladder_from = None  # the ladder is the same for every workload: climb it once
    for name in WORKLOADS:
        for label, trace in passes:
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace), "--out", args.out,
            ] + ["--smoke"] * args.smoke
            if trace and ladder_from:
                command += ["--ladder-from", ladder_from]
            elif trace:
                ladder_from = os.path.join(args.out, f"result-{name}-trace.json")
            last = ""
            with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
                for line in child.stdout:
                    if last:
                        print(last)
                    last = line.rstrip("\n")
            status = status or child.returncode
            try:
                combined["workloads"].setdefault(name, {})[label] = json.loads(last)
            except ValueError:
                print(last)
                status = status or 1
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "results.json"), "w") as out:
        json.dump(combined, out, indent=1)
    print(json.dumps(combined))
    return status


def _end_to_end_by_workload(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if "workloads" in document:
        return {
            name: passes["end_to_end"]["metrics"]
            for name, passes in document["workloads"].items()
            if "end_to_end" in passes
        }
    return {document["workload"]: document["metrics"]}


def check_agreement(first: str, second: str, contract: dict) -> int:
    """Two sets of runs agree when every end-to-end metric differs by no
    more than its bound in BENCHMARK.json (relative to the smaller)."""
    a, b = _end_to_end_by_workload(first), _end_to_end_by_workload(second)
    status = 0
    for workload in sorted(set(a) & set(b)):
        for entry in contract["end_to_end"]:
            name = entry["name"]
            if name not in a[workload] or name not in b[workload]:
                continue
            x, y = a[workload][name]["value"], b[workload][name]["value"]
            difference = abs(x - y) / min(abs(x), abs(y))
            verdict = "ok" if difference <= entry["bound"] else "DISAGREE"
            status = status or verdict != "ok"
            print(
                f"{workload:<14} {name:<20} {x:>12.4f} {y:>12.4f} "
                f"{difference:>7.1%} (bound {entry['bound']:.0%}) {verdict}"
            )
    if not set(a) & set(b):
        print("no workload is in both files")
        return 1
    return int(status)


def main(argv=None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="a handful of publications per workload, every metric name")
    parser.add_argument("--out", default=os.path.join(HERE, "out"))
    parser.add_argument("--ladder-from", metavar="RESULT.json",
                        help="traced run: reuse the ladder of an earlier traced run's result file")
    parser.add_argument("--check-agreement", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.check_agreement:
        return check_agreement(*args.check_agreement, contract)
    if args.workload:
        return run_one(args, contract)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
