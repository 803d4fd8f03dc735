"""Every function some entry point runs, or a named reason it need not.

The execution-level check beside the name-level ``test_reachability.py``:
``tests/audit/driver.py`` runs every entry point (the examples, the CLI
invocations of CI and the operator docs, the benchmark harness and the
benches) with a ``sys.setprofile`` hook in every process, and writes the
outermost ``src/repro`` functions that ran to ``.audit/executed.json``
(``REPRO_AUDIT_OUT`` names another directory).  Without that file the
audit skips, so tier-1 stays fast; CI's "Execution audit" job runs the
driver first.

A function no entry point runs is of one of four kinds, or it is deleted
together with its tests:

(a) a ``test_reachability.INSTRUMENTS`` entry (by name) or the owner of a
    ``test_options.KEPT`` entry — a seam, or a reference implementation a
    test compares against;
(b) a refusal or error path, in :data:`REFUSALS` with the test that
    reaches it;
(c) a crash, restart or reconnect path — safety code — in
    :data:`RECOVERY` with the test that reaches it;
(d) a callable a ``benchmarks/e2e/tracing.py`` target wraps.

The driver also runs the tests named in (b) and (c) under the hook, so a
named test that stops reaching its function fails here too.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from .audit.driver import DEFAULT_OUT, REPO, SRC, never_run, outermost_functions
from .test_options import KEPT
from .test_reachability import INSTRUMENTS

OUT = Path(os.environ.get("REPRO_AUDIT_OUT", DEFAULT_OUT))
TRACING = REPO / "benchmarks" / "e2e" / "tracing.py"

CHAOS_FAILURE = "tests/chaos/test_runner.py::TestCli::test_chaos_run_exit_one_on_failure"
DS_RESTART = (
    "tests/core/test_unsubscribe_and_links.py::TestPublisherReconnect"
    "::test_publisher_resumes_after_ds_restart"
)
DURABLE_DS = (
    "tests/store/test_ds_persistence.py::TestDurableDSRestart"
    "::test_delegated_tokens_survive_ds_restart"
)
CRASH_POINT = (
    "tests/store/test_crash_recovery.py::TestAppendCrashes::test_recovery_equals_committed_state"
)
RETRANSMIT = (
    "tests/cluster/test_reliable_publish.py::TestRetransmit"
    "::test_dropped_publish_frames_are_retransmitted"
)

# (b) "path::qualname" -> the test that reaches the refusal or error path
REFUSALS = {
    # a chaos run that violates an invariant: report, shrink, replay
    "chaos/runner.py::ChaosReport.failures": CHAOS_FAILURE,
    "chaos/runner.py::minimize": CHAOS_FAILURE,
    "chaos/schedule.py::minimize_schedule": CHAOS_FAILURE,
    "chaos/schedule.py::FaultSchedule.without": CHAOS_FAILURE,
    "chaos/schedule.py::FaultSchedule.to_json": CHAOS_FAILURE,
    "chaos/schedule.py::FaultSchedule.from_json": CHAOS_FAILURE,
    "chaos/schedule.py::FaultSchedule.from_dict": CHAOS_FAILURE,
    "chaos/schedule.py::Fault.from_dict": CHAOS_FAILURE,
    # a span ended by an exception records it
    "obs/tracing.py::Span.set": (
        "tests/obs/test_tracing.py::TestSpanLifecycle"
        "::test_a_scoped_span_records_the_error_that_ends_it"
    ),
}

# (c) "path::qualname" -> the test that reaches the crash/restart/reconnect path
RECOVERY = {
    "mq/broker.py::Broker.crash": DS_RESTART,
    "mq/broker.py::Broker.restart": DS_RESTART,
    "mq/client.py::JmsConnection.reconnect": DS_RESTART,
    "core/client.py::P3SClient.reconnect": DS_RESTART,
    "core/ds.py::DisseminationServer.crash": DURABLE_DS,
    "core/ds.py::DisseminationServer.restart": DURABLE_DS,
    "store/codec.py::decode_sub_key": DURABLE_DS,
    "store/codec.py::decode_token": DURABLE_DS,
    "core/subscriber.py::Subscriber.restart": (
        "tests/core/test_recovery.py::TestSubscriberRecovery::test_restart_reobtains_tokens"
    ),
    # a publish whose PUBACK never came is sent again after a jittered backoff
    "mq/client.py::JmsConnection.client_name": RETRANSMIT,
    "mq/client.py::_jitter_rng": RETRANSMIT,
    # a DS shard that stops heartbeating leaves the routing ring, and rejoins
    "cluster/router.py::ClusterMap.remove_ds": (
        "tests/cluster/test_membership.py::TestSimulatedFailureDetection"
        "::test_crashed_ds_shard_leaves_and_rejoins_the_routing_ring"
    ),
    "cluster/router.py::ClusterMap.add_ds": (
        "tests/cluster/test_membership.py::TestSimulatedFailureDetection"
        "::test_crashed_ds_shard_leaves_and_rejoins_the_routing_ring"
    ),
    "par/pool.py::MatchPool._restart": (
        "tests/par/test_partitions.py::test_a_killed_worker_gives_the_same_results_next_match"
    ),
    "store/faults.py::FaultPlan.fire": CRASH_POINT,
    "store/faults.py::FaultPlan.would_fire": CRASH_POINT,
    "store/records.py::_torn": (
        "tests/store/test_wal_engine.py::TestCorruption"
        "::test_torn_tail_is_truncated_and_prefix_recovered"
    ),
}


def load(out: Path = OUT) -> dict:
    executed = out / "executed.json"
    if not executed.exists():
        pytest.skip(
            f"no execution audit output at {executed}: run "
            "PYTHONPATH=src python tests/audit/driver.py first"
        )
    return json.loads(executed.read_text())


def traced() -> set[str]:
    """``path::qualname`` of every callable a tracing target wraps."""
    harness = str(TRACING.parent)
    spec = importlib.util.spec_from_file_location("_audit_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.path.insert(0, harness)
    sys.modules[spec.name] = tracing  # its dataclasses look their module up
    try:
        spec.loader.exec_module(tracing)
    finally:
        sys.path.remove(harness)
        del sys.modules[spec.name]
    return {
        f"{target.module.removeprefix('repro.').replace('.', '/')}.py::{target.qualname}"
        for target in tracing.TARGETS
    }


def _kept_owners() -> set[str]:
    owners = {entry.rsplit(".", 1)[0] for entry in KEPT}
    return owners | {f"{owner}.__init__" for owner in owners}


def _name(key: str) -> str:
    return key.split("::")[1].rsplit(".", 1)[-1]


def justified(key: str, traced_keys: set[str]) -> bool:
    """Whether a never-run function is of kind (a)-(d)."""
    return (
        _name(key) in INSTRUMENTS or key.split("::")[1] in _kept_owners()  # (a)
        or key in REFUSALS  # (b)
        or key in RECOVERY  # (c)
        or key in traced_keys  # (d)
    )


def unjustified(executed: set[str], src: Path = SRC) -> list[str]:
    """The never-run functions of no kind (a)-(d), with their lines."""
    traced_keys = traced()
    return [
        f"{key} (line {first}, {lines} lines)"
        for key, (first, lines) in sorted(never_run(executed, src).items())
        if not justified(key, traced_keys)
    ]


def stale(executed: set[str], src: Path = SRC) -> list[str]:
    """Justifications that no longer hold: an INSTRUMENTS name none of whose
    definitions is left unrun, and a REFUSALS/RECOVERY entry whose function
    is gone.  A refusal or recovery path that an entry point happens to
    meet (a publish retransmitted on a loaded box) keeps its entry."""
    missed_names = {_name(key) for key in never_run(executed, src)}
    defined = outermost_functions(src)
    found = [f"INSTRUMENTS[{name!r}]" for name in sorted(INSTRUMENTS) if name not in missed_names]
    for table_name, table in (("REFUSALS", REFUSALS), ("RECOVERY", RECOVERY)):
        found += [f"{table_name}[{key!r}]" for key in sorted(table) if key not in defined]
    return found


def test_every_entry_point_runs_as_without_the_hook():
    failed = [
        f"{entry['entry']}: exit {entry['exit']}"
        for entry in load()["entry_points"]
        if entry["verdict"] and entry["exit"] != 0
    ]
    assert not failed, "entry points that failed under the audit's hook:\n  " + "\n  ".join(failed)


def test_every_never_run_function_has_a_kind():
    missing = unjustified(set(load()["functions"]))
    assert not missing, (
        f"{len(missing)} src/repro functions no entry point runs, of no kind (a)-(d) "
        "(delete each with its tests, or name the test that reaches it):\n  "
        + "\n  ".join(missing)
    )


def test_no_justification_is_stale():
    found = stale(set(load()["functions"]))
    assert not found, "justifications that no longer hold:\n  " + "\n  ".join(found)


def test_the_named_tests_reach_their_functions():
    reached = load()["named_tests"]
    missed = [
        f"{key}: {test}"
        for table in (REFUSALS, RECOVERY)
        for key, test in sorted(table.items())
        if key not in reached.get(test, ())
    ]
    assert not missed, "named tests that do not run their function:\n  " + "\n  ".join(missed)


def test_the_named_tests_exist():
    missing = []
    for test in sorted({*REFUSALS.values(), *RECOVERY.values()}):
        path, *names = test.split("::")
        source = (REPO / path).read_text() if (REPO / path).exists() else ""
        if f"def {names[-1]}(" not in source:
            missing.append(test)
    assert not missing, f"named tests that do not exist: {missing}"


# -- the audit's own checks, on the tree itself; no driver output needed --------


def _everything_ran(src: Path = SRC) -> set[str]:
    return set(outermost_functions(src))


def test_an_added_uncalled_function_is_named(tmp_path):
    src = tmp_path / "repro"
    shutil.copytree(SRC, src)
    executed = _everything_ran(src)
    module = src / "core" / "ara.py"
    module.write_text(module.read_text() + "\n\ndef audit_probe_never_called():\n    return 1\n")
    assert unjustified(executed, src) == ["core/ara.py::audit_probe_never_called (line "
                                          f"{len(module.read_text().splitlines()) - 1}, 2 lines)"]


def test_an_instruments_entry_that_an_entry_point_runs_is_stale():
    assert stale(_everything_ran()) == [f"INSTRUMENTS[{name!r}]" for name in sorted(INSTRUMENTS)]


def test_without_driver_output_the_audit_skips_with_a_reason(tmp_path):
    with pytest.raises(pytest.skip.Exception, match="tests/audit/driver.py"):
        load(tmp_path)
