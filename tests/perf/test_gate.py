"""The versioned bench schema, the committed BENCH_*.json history, and
the perf-regression gate's pass/fail behaviour."""

from __future__ import annotations

import glob
import json
import os

import pytest

from repro.perf.bench import (
    BENCH_SCHEMA_VERSION,
    BenchRecord,
    load_bench_file,
    load_history,
    write_bench,
)
from repro.perf.gate import (
    format_gate,
    probe_match_speedups,
    probe_obs_recovery,
    probe_profiler_overhead,
    run_gate,
)

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))


class TestBenchSchema:
    def test_v1_document_round_trips(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        records = [
            BenchRecord("x.speedup", 2.5, "ratio", floor=1.5),
            BenchRecord(
                "x.latency_ms", 12.0, "ms", direction="lower", tolerance=0.2, seed=7
            ),
        ]
        document = write_bench(str(path), "x", records, workload={"n": 8}, seed=7)
        assert document["bench_schema"] == BENCH_SCHEMA_VERSION
        assert document["env"]["python"]
        loaded = {record.name: record for record in load_bench_file(str(path))}
        assert loaded["x.speedup"].floor == 1.5
        assert loaded["x.speedup"].source == "BENCH_x.json"
        assert loaded["x.latency_ms"].direction == "lower"
        assert loaded["x.latency_ms"].tolerance == 0.2
        assert loaded["x.latency_ms"].seed == 7

    def test_tolerance_defaults_by_unit(self):
        assert BenchRecord("a", 1.0, "ratio").effective_tolerance() == 0.40
        assert BenchRecord("a", 1.0, "fraction").effective_tolerance() == 0.10
        assert BenchRecord("a", 1.0, "furlongs").effective_tolerance() == 0.75
        assert BenchRecord("a", 1.0, "ms", tolerance=0.05).effective_tolerance() == 0.05

    def test_unknown_schema_version_raises(self, tmp_path):
        path = tmp_path / "BENCH_future.json"
        path.write_text('{"bench_schema": 99, "records": []}')
        with pytest.raises(ValueError, match="bench_schema 99"):
            load_bench_file(str(path))

    def test_unrecognized_shape_raises_not_vacuous(self, tmp_path):
        path = tmp_path / "BENCH_mystery.json"
        path.write_text('{"something": 1}')
        with pytest.raises(ValueError, match="unrecognized"):
            load_bench_file(str(path))


class TestCommittedHistory:
    """The committed history is one format: every root BENCH file is v1."""

    EXPECTED = {
        "BENCH_pr53.json": {"match_pool.TOY.break_even_tokens"},
        "BENCH_pr3.json": {"live_substrate.rpc_echo_p95_ms", "live_substrate.live_over_sim"},
        "BENCH_pr6.json": {"store.wal_fsync_records_per_s"},
        "BENCH_pr8.json": {"cluster.speedup_ds2"},
        "BENCH_pr9.json": {"obs_overhead.always_recovery"},
        "BENCH_pr15.json": {
            "match_fanout.precompute_speedup",
            "match_fanout.fixed_base_speedup",
        },
    }
    # one document in each shape a bench once wrote privately (PR 2/3/4/6/8/9)
    OLD_SHAPES = [
        {"match_fanout": {"precompute_speedup": 10.5, "fixed_base_speedup": 4.5}},
        {"rpc_echo_rtt": {"p95_ms": 2.8}, "burst_throughput": {"publications_per_s": 44.5}},
        {"scrape_sweep": {"p95_ms": 39.3}, "flight_recorder_tax": {"overhead_pct": 18.1}},
        {"append_throughput": {"wal_fsync": {"records_per_s": 5702.0}}},
        {"scaling": [{"ds_shards": 2, "speedup": 1.78}]},
        {"modes": {"sampled": {"recovery_vs_off": 0.95}}},
    ]

    def test_every_committed_file_is_v1(self):
        paths = glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json"))
        assert len(paths) >= 9
        for path in paths:
            with open(path) as handle:
                assert json.load(handle)["bench_schema"] == BENCH_SCHEMA_VERSION, path
        for filename, expected in self.EXPECTED.items():
            names = {record.name for record in load_bench_file(os.path.join(REPO_ROOT, filename))}
            assert expected <= names, filename

    @pytest.mark.parametrize("document", OLD_SHAPES, ids=lambda doc: next(iter(doc)))
    def test_pre_v1_shapes_are_refused(self, tmp_path, document):
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="unrecognized"):
            load_bench_file(str(path))

    def test_history_merges_all_files_and_honors_floors(self):
        history = load_history(REPO_ROOT)
        assert len(history) >= 65
        for expected in self.EXPECTED.values():
            assert expected <= set(history)
        assert history["prof.det_recovery"].source == "BENCH_pr10.json"
        assert history["match_fanout.precompute_speedup"].source == "BENCH_pr15.json"
        assert history["match_pool.TOY.break_even_tokens"].source == "BENCH_pr53.json"
        for record in history.values():
            if record.floor is not None:
                assert record.value >= record.floor, record.name

    def test_duplicate_record_name_raises(self, tmp_path):
        write_bench(
            str(tmp_path / "BENCH_a.json"), "a", [BenchRecord("shared.metric", 1.0)]
        )
        write_bench(
            str(tmp_path / "BENCH_b.json"), "b", [BenchRecord("shared.metric", 2.0)]
        )
        with pytest.raises(ValueError, match="shared.metric.*BENCH_a.json.*BENCH_b.json"):
            load_history(str(tmp_path))


class TestGate:
    def test_smoke_passes_on_the_committed_history(self):
        report = run_gate(root=REPO_ROOT, smoke=True)
        assert report.checks, "committed history must produce checks"
        assert report.passed, [check.detail for check in report.checks if not check.passed]
        assert "perf gate: PASS" in format_gate(report)

    def test_smoke_fails_on_synthetically_regressed_history(self):
        history = {
            "match_fanout.precompute_speedup": BenchRecord(
                "match_fanout.precompute_speedup", 1.1, "ratio", floor=1.3
            )
        }
        report = run_gate(history=history, fresh={})
        assert not report.passed
        (failure,) = [check for check in report.checks if not check.passed]
        assert failure.kind == "floor"
        assert "FAIL" in format_gate(report)

    def test_fresh_regression_beyond_tolerance_fails(self):
        history = {
            "match_fanout.precompute_speedup": BenchRecord(
                "match_fanout.precompute_speedup", 10.0, "ratio", floor=1.3
            )
        }
        # within the 40% ratio band: passes
        good = run_gate(history=history, fresh={"match_fanout.precompute_speedup": 6.5})
        assert good.passed
        # beyond it: the baseline check fails (the floor still holds)
        bad = run_gate(history=history, fresh={"match_fanout.precompute_speedup": 4.0})
        assert not bad.passed
        assert [check.kind for check in bad.checks if not check.passed] == ["baseline"]

    def test_lower_is_better_direction_mirrors(self):
        history = {
            "x.latency_ms": BenchRecord(
                "x.latency_ms", 10.0, "ms", direction="lower", tolerance=0.5
            )
        }
        assert run_gate(history=history, fresh={"x.latency_ms": 14.0}).passed
        assert not run_gate(history=history, fresh={"x.latency_ms": 16.0}).passed

    def test_fresh_ceiling_checks_apply(self):
        history = {
            "x.overhead": BenchRecord(
                "x.overhead", 10.0, "count", direction="lower", ceiling=80.0
            )
        }
        report = run_gate(history=history, fresh={"x.overhead": 90.0})
        assert not report.passed
        assert any(check.kind == "ceiling" and not check.passed for check in report.checks)

    def test_unknown_fresh_metric_fails(self):
        # a renamed or mistyped probe record must not silently stop being
        # gated: no baseline is a failure, not a note
        report = run_gate(history={}, fresh={"new.metric": 1.23})
        assert not report.passed
        (check,) = report.checks
        assert check.kind == "baseline" and "no committed baseline" in check.detail

    def test_fresh_probes_pass_against_committed_history(self):
        # Clock-free: each probe runs at token size, so what is checked is
        # that every record it emits has a committed baseline to be judged
        # against — the values themselves are judged where timing bounds
        # live (`repro perf gate` in CI, at gate size).
        gated = {
            **probe_match_speedups(vector_bits=4, tokens=2, publications=1, scalar_muls=2)[0],
            **probe_obs_recovery(messages=100, repeats=1)[0],
            **probe_profiler_overhead(publications=1, repeats=1)[0],
        }
        assert set(gated) == {
            "match_fanout.precompute_speedup",
            "match_fanout.fixed_base_speedup",
            "obs_overhead.always_recovery",
            "prof.det_recovery",
        }
        assert set(gated) <= set(load_history(REPO_ROOT))
        assert all(value > 0 for value in gated.values())

    def test_smoke_report_mentions_sources(self):
        report = run_gate(root=REPO_ROOT, smoke=True)
        assert any("BENCH_pr53.json" in check.detail for check in report.checks)
