#!/usr/bin/env python3
"""Run every entry point under the execution audit's hook; merge what ran.

    PYTHONPATH=src python tests/audit/driver.py [--out DIR] [--seconds S] [--no-benches]

The entry points are the five examples, the CLI invocations CI and the
operator docs (OBSERVABILITY, NETWORKING, PERSISTENCE, CLUSTER, CHAOS)
run — two of them four-or-more-process ``live init``/``serve-*``/``run``
deployments —, ``benchmarks/e2e/run.py`` (``--smoke``, then every
workload at ``--seconds`` untraced and ``--trace 1``) and every
``benchmarks/bench_*.py`` under ``pytest --benchmark-disable``
(pytest-benchmark's pause calls ``sys.setprofile(None)`` around each
measured call, which would hide its body from the hook).  Each runs in
a process of its own with ``tests/audit`` on ``PYTHONPATH``, so
:mod:`sitecustomize` records it and every process it starts.

A bench's verdict is not the audit's: timing bounds fail under the hook
and are ignored, as are those of the perf gate's fresh probes.  Every
other entry point must exit as it would without the hook;
``tests/test_execution_audit.py`` checks that and reads the merged
``DIR/executed.json``.  ``DIR/audit.json`` holds the never-run lines per
package as v1 bench records, re-derived on every run.

Needs Python 3.11+ (``co_qualname``).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
HOOK = Path(__file__).resolve().parent
DEFAULT_OUT = REPO / ".audit"
PYTHON = sys.executable
REPRO = [PYTHON, "-m", "repro"]
LOCALS = ".<locals>."
BASE_PORTS = (17341, 17441)  # away from `live init`'s default 7341


def _outermost(body, prefix=""):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from _outermost(node.body, f"{prefix}{node.name}.")


def _declaration_only(node) -> bool:
    """A body of a docstring, ``...`` or ``raise NotImplementedError``: an
    interface's declaration, with no line to run."""
    return all(
        (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        or (isinstance(stmt, ast.Raise) and ast.unparse(stmt.exc) == "NotImplementedError")
        for stmt in node.body
    )


def outermost_functions(src: Path = SRC) -> dict[str, tuple[int, int]]:
    """``"path::qualname" -> (first line, line count)`` of every function
    defined at module level or in a class (nested functions belong to the
    function around them), path relative to ``src``."""
    found = {}
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for qualname, node in _outermost(tree.body):
            if _declaration_only(node):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            key = f"{path.relative_to(src).as_posix()}::{qualname}"
            found[key] = (first, node.end_lineno - first + 1)
    return found


def outermost_of(qualname: str) -> str:
    """The outermost function a code object's qualname belongs to."""
    return qualname.split(LOCALS)[0]


def never_run(executed: set[str], src: Path = SRC) -> dict[str, tuple[int, int]]:
    return {key: span for key, span in outermost_functions(src).items() if key not in executed}


def lines_by_package(functions: dict[str, tuple[int, int]]) -> dict[str, int]:
    packages: dict[str, int] = {}
    for key, (_first, lines) in functions.items():
        path = key.split("::")[0]
        package = path.split("/")[0] if "/" in path else "(top)"
        packages[package] = packages.get(package, 0) + lines
    return dict(sorted(packages.items()))


class Run:
    """The entry points, run one after another in ``work``."""

    def __init__(self, out: Path):
        self.raw = out / "raw"
        self.work = out / "work"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(HOOK), str(REPO / "src")]),
            REPRO_AUDIT_RAW=str(self.raw),
        )
        self.results: list[dict] = []

    def __call__(self, *argv, verdict=True, timeout=900, cwd=None, raw=None):
        started = time.monotonic()
        env = dict(self.env, REPRO_AUDIT_RAW=str(raw)) if raw else self.env
        try:
            code = subprocess.run(
                [str(a) for a in argv], cwd=cwd or self.work, env=env, timeout=timeout,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        seconds = round(time.monotonic() - started, 1)
        label = " ".join(str(a) for a in argv[2 if argv[:3] == tuple(REPRO) else 1:])
        self.results.append({"entry": label, "exit": code, "seconds": seconds, "verdict": verdict})
        print(f"{code!s:>7} {seconds:7.1f}s  {label}", flush=True)
        return code

    def start(self, *argv):
        with open(self.work / "serve.log", "ab") as log:
            return subprocess.Popen(
                [str(a) for a in argv], cwd=self.work, env=self.env, stdout=log, stderr=log
            )


def _wait_for_ports(state: Path, timeout: float = 120.0) -> None:
    from repro.live.runner import load_state

    bundle = load_state(str(state))
    deadline = time.monotonic() + timeout
    for port in bundle.ports.values():
        while True:
            try:
                socket.create_connection((bundle.host, port), timeout=1).close()
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError(f"{state}: port {port} never opened") from None
                time.sleep(0.2)


def _stop(processes) -> None:
    time.sleep(2 * 0.5)  # two of the hook's flush periods
    for process in processes:
        process.send_signal(signal.SIGTERM)
    for process in processes:
        process.wait(timeout=30)


def deployments(run: Run) -> None:
    """CI's crash-recovery job plus the operator commands against a running
    deployment, then a sharded one (docs/CLUSTER.md)."""
    state, data = run.work / "p3s.state", run.work / "p3s-data"
    run(*REPRO, "live", "init", "--state", state, "--data-dir", data,
        "--base-port", BASE_PORTS[0])
    serving = {role: run.start(*REPRO, "live", f"serve-{role}", "--state", state)
               for role in ("ds", "rs", "pbe-ts", "anon")}
    _wait_for_ports(state)
    run(*REPRO, "live", "run", "--state", state)
    time.sleep(1)
    serving["rs"].kill()
    serving["rs"].wait()
    run(*REPRO, "store", "inspect", data / "rs")
    run(*REPRO, "store", "inspect", data / "rs", "--json")
    serving["rs"] = run.start(*REPRO, "live", "serve-rs", "--state", state)
    _wait_for_ports(state)
    run(*REPRO, "live", "status", "--state", state, "--json")
    run(*REPRO, "live", "status", "--state", state)
    run(*REPRO, "live", "top", "--state", state, "--iterations", 2, "--interval", 0.5,
        "--no-clear")
    run(*REPRO, "slo", "report", "--state", state)
    run(*REPRO, "slo", "watch", "--state", state, "--iterations", 2, "--interval", 0.5,
        "--no-clear")
    run(*REPRO, "prof", "top", "--state", state, "--out", "live.prof.json", "--force")
    run(*REPRO, "cluster", "status", "--state", state)
    _stop(serving.values())

    state = run.work / "sharded.state"
    run(*REPRO, "live", "init", "--state", state, "--ds-shards", 2, "--rs-shards", 2,
        "--replication", 2, "--base-port", BASE_PORTS[1])
    serving = [run.start(*REPRO, "live", f"serve-{role}", "--state", state, "--name", name)
               for role, name in (("ds", "ds0"), ("ds", "ds1"), ("rs", "rs0"), ("rs", "rs1"))]
    serving += [run.start(*REPRO, "live", f"serve-{role}", "--state", state)
                for role in ("pbe-ts", "anon")]
    _wait_for_ports(state)
    run(*REPRO, "live", "run", "--state", state)
    run(*REPRO, "live", "status", "--state", state, "--json")
    _stop(serving)


def in_process(run: Run) -> None:
    """Every other CLI invocation of CI and the docs."""
    run(*REPRO, "--help")
    run(PYTHON, "-m", "repro.cli", "--help")
    run(*REPRO, "demo", "--metrics-out", "demo.prom")
    run(*REPRO, "demo", "--trace")
    run(*REPRO, "demo", "--trace-out", "trace.jsonl")
    run(*REPRO, "table1", "-p", "TOY")
    run(*REPRO, "calibrate", "-p", "TOY")
    for figure in ("fig8", "fig9", "fig10"):
        run(*REPRO, figure)
    run(*REPRO, "attacks")
    run(*REPRO, "live", "demo")
    run(*REPRO, "live", "status", "--json", "--metrics-out", "snapshot.prom")
    run(*REPRO, "live", "status")
    run(*REPRO, "live", "top", "--iterations", 2, "--interval", 0.5, "--no-clear")
    run(*REPRO, "chaos", "profiles")
    # exit 1 is a found violation; the seeds below are CI's passing ones
    run(*REPRO, "chaos", "run", "--seed", 7, "--profile", "ci", "--report",
        "chaos-report.json", "--minimize", "--min-out", "chaos-minimal.json")
    run(*REPRO, "chaos", "run", "--seed", 7, "--profile", "ci", "--report",
        "chaos-replay.json")
    run(*REPRO, "chaos", "run", "--seed", 3, "--profile", "shard", "--report",
        "cluster-chaos.json")
    run(*REPRO, "cluster", "status")
    run(*REPRO, "cluster", "status", "--json")
    run(*REPRO, "slo", "report")
    run(*REPRO, "slo", "report", "--chaos-report", "chaos-report.json")
    for seed, alerts in ((7, ["delivery_latency"]), (14, ["delivery_latency"]),
                         (36, ["delivery_latency", "delivery_integrity"])):
        expect = [arg for alert in alerts for arg in ("--expect-alert", alert)]
        run(*REPRO, "slo", "report", "--chaos-seed", seed, "--profile", "ci", *expect,
            "--out", f"slo-{seed}.json")
    run(*REPRO, "slo", "report", "--chaos-seed", 7, "--profile", "ci", "--no-faults",
        "--expect-clean", "--json")
    run(*REPRO, "slo", "watch", "--iterations", 2, "--interval", 0.5, "--no-clear")
    run(*REPRO, "prof", "record", "--publications", 20, "--seed", 7, "--out", "demo.prof.json")
    run(*REPRO, "prof", "record", "--publications", 20, "--seed", 7, "--out", "demo.folded",
        "--force")
    run(*REPRO, "prof", "record", "--publications", 30, "--seed", 8, "--out",
        "after.prof.json")
    run(*REPRO, "prof", "record", "--mode", "wall", "--publications", 10, "--out",
        "wall.prof.json")
    run(*REPRO, "prof", "report", "demo.prof.json", "--limit", 15)
    run(*REPRO, "prof", "diff", "demo.prof.json", "after.prof.json")
    run(*REPRO, "prof", "ledger")
    run(*REPRO, "prof", "top", "--out", "top.prof.json")
    run(*REPRO, "perf", "gate", "--smoke", "--root", REPO)
    for probe in ("match", "obs", "prof"):  # wall-clock ratios: the hook's tax skews them
        run(*REPRO, "perf", "gate", "--only", probe, "--root", REPO, verdict=False)


def harness(run: Run, seconds: float, benches: bool) -> None:
    for example in sorted((REPO / "examples").glob("*.py")):
        run(PYTHON, example)
    e2e = REPO / "benchmarks" / "e2e" / "run.py"
    run(PYTHON, e2e, "--smoke", "--out", run.work / "e2e-smoke")
    run(PYTHON, e2e, "--seconds", seconds, "--trace", 1, "--out", run.work / "e2e")
    if benches:
        run(PYTHON, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
            REPO / "benchmarks", verdict=False, timeout=3600, cwd=REPO)


def named_tests(run: Run, out: Path) -> dict[str, list[str]]:
    """Each test the audit names for a refusal or recovery path, run alone
    under the hook: ``test id -> the functions it ran``."""
    sys.path.insert(0, str(REPO))
    from tests.test_execution_audit import RECOVERY, REFUSALS

    reached = {}
    for index, test in enumerate(sorted({*REFUSALS.values(), *RECOVERY.values()})):
        raw = out / "named" / str(index)
        run(PYTHON, "-m", "pytest", "-q", "-p", "no:cacheprovider", test, cwd=REPO, raw=raw)
        reached[test] = sorted(_functions(raw))
    return reached


def _functions(raw: Path) -> set[str]:
    executed = set()
    for path in raw.glob("*.json"):
        for relpath, qualname in json.loads(path.read_text())["functions"]:
            executed.add(f"{relpath}::{outermost_of(qualname)}")
    return executed


def merge(out: Path, results: list[dict], named: dict[str, list[str]]) -> None:
    document = {
        "functions": sorted(_functions(out / "raw")),
        "named_tests": named,
        "entry_points": results,
    }
    (out / "executed.json").write_text(json.dumps(document, indent=1) + "\n")


def write_records(out: Path) -> None:
    """``DIR/audit.json``: the never-run lines per package as v1 records."""
    from repro.perf.bench import BenchRecord, write_bench

    executed = set(json.loads((out / "executed.json").read_text())["functions"])
    missed = never_run(executed)
    by_package = lines_by_package(missed)
    records = [
        BenchRecord(f"audit.never_run_lines.{package}", lines, unit="count", direction="lower",
                    source="tests/audit/driver.py")
        for package, lines in by_package.items()
    ]
    records.append(BenchRecord("audit.never_run_lines", sum(by_package.values()), unit="count",
                               direction="lower", source="tests/audit/driver.py"))
    records.append(BenchRecord("audit.never_run_functions", len(missed), unit="count",
                               direction="lower", source="tests/audit/driver.py"))
    write_bench(str(out / "audit.json"), "execution_audit", records,
                workload={"functions": len(outermost_functions())})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--seconds", type=float, default=3.0,
                        help="benchmarks/e2e/run.py --seconds per workload")
    parser.add_argument("--no-benches", dest="benches", action="store_false",
                        help="leave out pytest benchmarks (the audit then misses their code)")
    parser.add_argument("--records", action="store_true",
                        help="only write DIR/audit.json from DIR/executed.json")
    args = parser.parse_args(argv)
    if sys.version_info < (3, 11):
        sys.exit("the execution audit needs Python 3.11+ (code objects' co_qualname)")
    out = args.out.resolve()
    if args.records:
        write_records(out)
        return 0
    for stale in ("raw", "named"):
        shutil.rmtree(out / stale, ignore_errors=True)
    run = Run(out)
    in_process(run)
    deployments(run)
    harness(run, args.seconds, args.benches)
    named = named_tests(run, out)
    # the record writer is an entry point too: its second pass counts what
    # the first one ran
    for _ in range(2):
        merge(out, run.results, named)
        run(PYTHON, __file__, "--records", "--out", out)
    merge(out, run.results, named)
    for record in json.loads((out / "audit.json").read_text())["records"]:
        print(f"{record['value']:8.0f}  {record['name']}")
    failed = [r["entry"] for r in run.results if r["verdict"] and r["exit"] != 0]
    for entry in failed:
        print(f"FAILED under the hook: {entry}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    sys.exit(main())
