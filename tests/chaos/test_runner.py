"""End-to-end chaos runs: determinism, passing profiles, mutation testing.

The mutation tests are the teeth of the harness: each invariant family
must *fail* when the corresponding defense is deliberately broken
(dedup disabled, retries disabled, anonymization log tainted, WAL
recovery corrupted) and *pass* on the intact build under the very same
fault schedule — proving the invariants measure the defenses rather
than vacuously passing.
"""

import pytest

from repro.chaos import FaultSchedule, minimize, run_chaos
from repro.chaos.invariants import check_durability
from repro.chaos.schedule import Fault
from repro.chaos.invariants import scan_files_for
from repro.cli import main
from repro.core.sightings import opened

# a bounded burst of drops on the retried retrieval path: the intact
# retry budget (8 attempts) absorbs it; a build with retries disabled
# loses the affected deliveries permanently
DROP_BURST = FaultSchedule(
    seed=7,
    profile="mutation",
    faults=(Fault("drop", 0.0, 10.0, src="anon", dst="rs", hits=(1, 2)),),
)

# duplicate every DS -> subscriber DELIVER cast once: the intact GUID
# dedup suppresses the second notification; a build without dedup
# retrieves and delivers twice
DUPLICATE_DELIVERS = FaultSchedule(
    seed=7,
    profile="mutation",
    faults=(Fault("duplicate", 0.0, 10.0, src="ds", dst="sub*", delay_s=0.01),),
)

# a partition that never heals within the retry budget: legitimately
# fails on any build — the minimization test's known-bad schedule
ETERNAL_PARTITION = FaultSchedule(
    seed=7,
    profile="mutation",
    faults=(
        Fault("delay", 0.0, 0.3, src="ds", dst="sub*", delay_s=0.05),
        Fault("partition", 0.0, 100.0, node="anon"),
        Fault("duplicate", 0.0, 0.3, src="pub", dst="ds", delay_s=0.01, hits=(1,)),
    ),
)


def _disable_dedup(system):
    for subscriber in system.subscribers.values():
        subscriber._dedup = None


def _disable_retries(system):
    for subscriber in system.subscribers.values():
        subscriber.retrieval_retries = 1


def _taint_observation_log(system):
    # the run's recorder takes down a subscriber as a source the RS opened
    opened(system.rs.name, "source", "sub00")


class TestDeterminism:
    def test_same_seed_bit_identical_report(self):
        a = run_chaos(7, "smoke")
        b = run_chaos(7, "smoke")
        assert a.to_json() == b.to_json()

    def test_durable_profile_bit_identical_report(self):
        a = run_chaos(3, "ci")
        b = run_chaos(3, "ci")
        assert a.to_json() == b.to_json()

    def test_replayed_schedule_reproduces_failure_identically(self):
        a = run_chaos(7, "smoke", schedule=ETERNAL_PARTITION)
        b = run_chaos(7, "smoke", schedule=FaultSchedule.from_json(ETERNAL_PARTITION.to_json()))
        assert not a.passed and not b.passed
        assert a.to_json() == b.to_json()

    def test_report_carries_no_wall_clock_or_paths(self):
        report = run_chaos(7, "smoke").to_json()
        assert "/tmp" not in report and "p3s-chaos-" not in report


class TestPassingProfiles:
    @pytest.mark.parametrize("profile", ["smoke", "default", "partition"])
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_profile_passes_on_intact_build(self, profile, seed):
        report = run_chaos(seed, profile)
        assert report.passed, [f.to_dict() for f in report.failures()]

    def test_ci_profile_checks_all_five_families(self):
        report = run_chaos(7, "ci")
        assert report.passed, [f.to_dict() for f in report.failures()]
        families = {result.family for result in report.invariants}
        assert families == {
            "delivery", "privacy", "durability", "liveness", "alerting"
        }

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            run_chaos(7, "hurricane")


class TestMutationDelivery:
    """delivery.* must catch a build whose GUID dedup is disabled."""

    def test_duplicate_casts_without_dedup_fail(self):
        report = run_chaos(7, "smoke", schedule=DUPLICATE_DELIVERS, mutate=_disable_dedup)
        assert not report.passed
        assert any(f.name == "delivery.no_duplicates" for f in report.failures())

    def test_duplicate_casts_with_dedup_pass(self):
        report = run_chaos(7, "smoke", schedule=DUPLICATE_DELIVERS)
        assert report.passed, [f.to_dict() for f in report.failures()]

    def test_dedup_suppression_is_counted(self):
        """The regression teeth for the idempotent-delivery satellite."""
        system_stats = {}

        def capture(system):
            system_stats["subs"] = list(system.subscribers.values())

        report = run_chaos(7, "smoke", schedule=DUPLICATE_DELIVERS, mutate=capture)
        assert report.passed
        assert sum(s.stats.duplicates_suppressed for s in system_stats["subs"]) > 0


class TestMutationLiveness:
    """liveness.*/delivery.* must catch a build whose retry loop is disabled."""

    def test_drop_burst_without_retries_fails(self):
        report = run_chaos(7, "smoke", schedule=DROP_BURST, mutate=_disable_retries)
        assert not report.passed
        failed = {f.name for f in report.failures()}
        assert "liveness.eventual_delivery" in failed

    def test_drop_burst_with_retries_passes(self):
        report = run_chaos(7, "smoke", schedule=DROP_BURST)
        assert report.passed, [f.to_dict() for f in report.failures()]


class TestMutationPrivacy:
    """privacy.* must catch a subscriber identity reaching a server log."""

    def test_tainted_observation_log_fails(self):
        report = run_chaos(7, "smoke", mutate=_taint_observation_log)
        assert not report.passed
        failed = {f.name for f in report.failures()}
        assert "privacy.no_subscriber_identity_at_servers" in failed

    def test_untainted_log_passes(self):
        assert run_chaos(7, "smoke").passed


class TestMutationDurability:
    """durability.* must catch recovery that loses, corrupts, or resurrects."""

    def test_lost_committed_key_fails(self):
        committed = {b"g1": b"v1", b"g2": b"v2"}
        recovered = {b"g1": b"v1"}
        results = {r.name: r for r in check_durability(committed, recovered)}
        assert not results["durability.committed_recovered"].passed

    def test_corrupt_value_fails(self):
        committed = {b"g1": b"v1"}
        recovered = {b"g1": b"XX"}
        results = {r.name: r for r in check_durability(committed, recovered)}
        assert not results["durability.committed_recovered"].passed

    def test_resurrected_key_fails(self):
        committed = {b"g1": b"v1"}
        recovered = {b"g1": b"v1", b"zombie": b"v9"}
        results = {r.name: r for r in check_durability(committed, recovered)}
        assert not results["durability.no_resurrection"].passed

    def test_faithful_recovery_passes(self):
        state = {b"g1": b"v1", b"g2": b"v2"}
        assert all(r.passed for r in check_durability(state, dict(state)))

    def test_expired_ciphertext_on_disk_fails(self, tmp_path):
        (tmp_path / "segment.wal").write_bytes(b"prefix SECRET-CT suffix")
        assert scan_files_for(str(tmp_path), b"SECRET-CT") == [str(tmp_path / "segment.wal")]

    def test_scrubbed_ciphertext_passes(self, tmp_path):
        (tmp_path / "segment.wal").write_bytes(b"nothing to see")
        assert scan_files_for(str(tmp_path), b"SECRET-CT") == []


class TestMinimize:
    def test_minimize_isolates_the_partition(self):
        minimal, report = minimize(7, "smoke", schedule=ETERNAL_PARTITION)
        assert not report.passed
        assert len(minimal.faults) == 1
        assert minimal.faults[0].kind == "partition"

    def test_minimize_returns_passing_run_unchanged(self):
        minimal, report = minimize(7, "smoke", schedule=DROP_BURST)
        assert report.passed
        assert minimal == DROP_BURST


class TestCli:
    def test_chaos_run_exit_zero_on_pass(self, capsys):
        assert main(["chaos", "run", "--seed", "7", "--profile", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "all invariants hold" in out

    def test_chaos_run_exit_one_on_failure(self, tmp_path, capsys):
        schedule_path = tmp_path / "schedule.json"
        schedule_path.write_text(ETERNAL_PARTITION.to_json())
        report_path = tmp_path / "report.json"
        min_path = tmp_path / "minimal.json"
        with pytest.raises(SystemExit) as excinfo:
            main([
                "chaos", "run", "--seed", "7", "--profile", "smoke",
                "--schedule", str(schedule_path),
                "--report", str(report_path),
                "--minimize", "--min-out", str(min_path),
            ])
        assert excinfo.value.code == 1
        assert report_path.exists()
        minimal = FaultSchedule.from_json(min_path.read_text())
        assert len(minimal.faults) == 1 and minimal.faults[0].kind == "partition"

    def test_chaos_report_file_matches_in_process_run(self, tmp_path):
        report_path = tmp_path / "report.json"
        main(["chaos", "run", "--seed", "11", "--profile", "smoke",
              "--report", str(report_path)])
        assert report_path.read_text().strip() == run_chaos(11, "smoke").to_json()

    def test_chaos_profiles_lists_them(self, capsys):
        assert main(["chaos", "profiles"]) == 0
        out = capsys.readouterr().out
        for name in ("smoke", "default", "ci", "heavy", "partition"):
            assert name in out
