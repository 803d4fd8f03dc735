"""repro.obs.prof: profile model round-trips, sampler bounds, the
deterministic-replay contract, and the op-count sampler's cost property."""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import pytest

from repro.obs.aggregate import TelemetryAggregator
from repro.obs.observability import Observability
from repro.obs.prof import (
    OVERFLOW_FRAME,
    DeterministicSampler,
    Profile,
    StackSampler,
    cost_ledger,
    diff_profiles,
    format_diff,
    format_ledger,
    format_report,
    load_profile,
    parse_folded,
    parse_speedscope,
    record_demo,
)
from repro.obs.prof.sampler import _StackTable
from repro.obs.prof.workload import run_demo_workload


class TestProfileModel:
    def _sample_profile(self) -> Profile:
        profile = Profile(mode="det", origin="test-1", meta={"every": 4})
        profile.add(("pub", "pbe.encrypt", "op.pairing"), count=3)
        profile.add(("pub", "pbe.encrypt", "op.g1_exp"), count=5)
        profile.add(("ds", "ds.fan_out", "op.hve.match"), count=2)
        return profile

    def test_folded_round_trip(self):
        profile = self._sample_profile()
        text = profile.folded()
        parsed = parse_folded(text)
        assert {
            stack: weight.count for stack, weight in parsed.samples.items()
        } == {stack: weight.count for stack, weight in profile.samples.items()}
        # deterministic ordering: re-rendering is byte-identical
        assert parsed.folded() == text

    def test_folded_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_folded("just-a-stack-no-weight\n")

    def test_speedscope_round_trip_is_lossless(self):
        profile = self._sample_profile()
        document = profile.to_speedscope(name="demo")
        assert document["$schema"].startswith("https://www.speedscope.app")
        assert document["profiles"][0]["type"] == "sampled"
        back = parse_speedscope(document)
        assert back.origin == "test-1"
        assert back.mode == "det"
        assert back.meta["every"] == 4
        assert back.folded() == profile.folded()

    def test_load_profile_sniffs_both_formats(self, tmp_path):
        import json

        profile = self._sample_profile()
        folded = tmp_path / "p.folded"
        folded.write_text(profile.folded())
        speedscope = tmp_path / "p.prof.json"
        speedscope.write_text(json.dumps(profile.to_speedscope()))
        assert load_profile(str(folded)).folded() == profile.folded()
        assert load_profile(str(speedscope)).folded() == profile.folded()

    def test_merge_dedups_by_stack_and_sums_weights(self):
        one = self._sample_profile()
        two = self._sample_profile()
        two.add(("rs", "rs.store", "op.g1_exp"), count=7)
        merged = Profile(mode="det", origin="merged")
        merged.merge(one)
        merged.merge(two)
        # shared stacks summed, not duplicated
        assert merged.samples[("pub", "pbe.encrypt", "op.pairing")].count == 6
        assert merged.samples[("rs", "rs.store", "op.g1_exp")].count == 7
        assert len(merged.samples) == len(two.samples)

    def test_diff_ranks_self_time_deltas(self):
        before = Profile(mode="det")
        before.add(("pub", "op.pairing"), count=5)
        before.add(("pub", "op.g1_exp"), count=5)
        after = Profile(mode="det")
        after.add(("pub", "op.pairing"), count=15)  # regressed share
        after.add(("pub", "op.g1_exp"), count=5)
        deltas = diff_profiles(before, after)
        assert deltas[0].frame == "op.pairing"
        assert deltas[0].delta == pytest.approx(0.75 - 0.5)
        assert deltas[-1].frame == "op.g1_exp"
        assert deltas[-1].delta < 0
        assert "op.pairing" in format_diff(deltas)

    def test_report_names_components_and_frames(self):
        report = format_report(self._sample_profile())
        assert "op.g1_exp" in report
        assert "pub=" in report and "ds=" in report

    def test_stack_table_overflow_preserves_weight(self):
        table = _StackTable(max_stacks=4)
        for index in range(10):
            table.add((f"frame-{index}",), 1, 0.0, 0.0)
        profile = table.snapshot(Profile(mode="det"))
        # cardinality capped at max_stacks + the overflow bucket...
        assert len(profile.samples) <= 5
        assert profile.samples[(OVERFLOW_FRAME,)].count == table.overflowed == 6
        # ...but no weight was dropped
        assert profile.total("count") == 10


class TestStackSampler:
    def test_stack_table_stays_bounded_under_soak(self):
        sampler = StackSampler(hz=50.0, max_stacks=256)
        errors: list[BaseException] = []

        def soak():
            # drive the sampling step directly (no timer thread): each
            # call samples the main thread once
            try:
                for _ in range(10_000):
                    sampler._sample_once(1e-6, 1e-6)
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        worker = threading.Thread(target=soak)
        worker.start()
        worker.join()
        assert not errors
        assert sampler.ticks == 10_000
        profile = sampler.profile()
        # memory flat: the table holds at most its bound plus the overflow
        # bucket, and nothing is lost from the aggregate
        assert len(profile.samples) <= 256 + 1
        assert profile.total("count") == 10_000

    def test_background_thread_attributes_active_span(self):
        obs = Observability()
        try:
            sampler = StackSampler(hz=250.0, obs=obs)
            deadline = time.perf_counter() + 0.4
            with sampler:
                with obs.tracer.span("pbe.encrypt", "pub"):
                    while time.perf_counter() < deadline:
                        sum(i * i for i in range(500))
            profile = sampler.profile()
        finally:
            obs.uninstall()
        assert sampler._thread is None  # the context manager stopped it
        assert profile.meta["ticks"] > 0
        roots = {stack[0] for stack in profile.samples}
        assert "pub" in roots
        attributed = [s for s in profile.samples if s[0] == "pub"]
        assert all(stack[1] == "pbe.encrypt" for stack in attributed)


class TestDeterministicSampler:
    def test_every_n_op_firing(self):
        sampler = DeterministicSampler(every=4)
        for _ in range(7):
            sampler.on_op("pairing")
        assert sampler.samples_taken == 1
        sampler.on_op("pairing", count=9)  # 16 total: fires at 8, 12, 16
        assert sampler.samples_taken == 4
        assert sampler.ops_seen == 16

    def test_replay_is_byte_identical_for_pinned_seed(self):
        first, _ = record_demo(publications=8, seed=11, mode="det", every=4)
        second, _ = record_demo(publications=8, seed=11, mode="det", every=4)
        assert first.folded() == second.folded()
        assert first.folded()  # non-trivial recording
        # and a different seed actually changes the recording
        other, _ = record_demo(publications=8, seed=12, mode="det", every=4)
        assert other.folded() != first.folded()

    def test_stacks_are_component_and_span_attributed(self):
        profile, stats = record_demo(publications=8, seed=3, mode="det", every=4)
        assert stats["delivered"] >= 1
        components = {stack[0] for stack in profile.samples}
        # publisher-side encryption and subscriber-side matching both
        # show up with their component roots and op.* leaves
        assert "pub" in components
        assert any(c in components for c in ("alice", "bob"))
        assert all(stack[-1].startswith("op.") for stack in profile.samples)
        match_stacks = [
            stack
            for stack in profile.samples
            if stack[-1] in ("op.hve.match", "op.pairing") and stack[0] != "unattributed"
        ]
        assert match_stacks, "crypto pairing/match frames must carry components"

    def test_samples_and_stack_walks_are_counted_not_timed(self):
        # why op-count sampling is cheap, stated without a clock: N on_op
        # calls at every=k take floor(N/k) samples and look at the span
        # stack only for those.  (The timing bound is prof.det_recovery,
        # floor 0.9, under `repro perf gate --only prof`.)
        class CountingTracer:
            walks = 0

            @property
            def _stack(self):
                self.walks += 1
                return []

        for every, calls in ((1, 5), (7, 6), (8, 1000), (64, 1000)):
            tracer = CountingTracer()
            sampler = DeterministicSampler(every=every, obs=SimpleNamespace(tracer=tracer))
            for _ in range(calls):
                sampler.on_op("pairing")
            assert sampler.samples_taken == calls // every
            assert tracer.walks == calls // every
            assert sampler.profile().total("count") == calls // every


def _profiled(service: str, profile: dict) -> dict:
    """A telemetry snapshot carrying nothing but a profile."""
    return {"service": service, "alive": True, "ready": True, "checks": {}, "profile": profile}


class TestAggregatorMerge:
    def _profile_dict(self, origin: str, count: int = 10) -> dict:
        profile = Profile(mode="det", origin=origin)
        profile.add(("ds", "ds.fan_out", "op.hve.match"), count=count)
        return profile.to_dict()

    def test_same_origin_across_services_dedups(self):
        # one process hosting four services reports the same sampler in
        # each service's snapshot: merge must keep one copy, not four
        aggregator = TelemetryAggregator()
        for service in ("anon", "ds", "rs", "pbe-ts"):
            aggregator.ingest(_profiled(service, self._profile_dict("wall-77-1")))
        merged = aggregator.merged_profile()
        assert merged.total("count") == 10
        assert aggregator.profile_origins() == {
            "wall-77-1": ["anon", "ds", "pbe-ts", "rs"]
        }

    def test_distinct_origins_sum(self):
        aggregator = TelemetryAggregator()
        aggregator.ingest(_profiled("ds0", self._profile_dict("wall-77-1", 10)))
        aggregator.ingest(_profiled("ds1", self._profile_dict("wall-78-1", 3)))
        merged = aggregator.merged_profile()
        assert merged.total("count") == 13
        assert merged.samples[("ds", "ds.fan_out", "op.hve.match")].count == 13

    def test_hot_frames_rank_leaves(self):
        aggregator = TelemetryAggregator()
        profile = Profile(mode="det", origin="det-1")
        profile.add(("pub", "op.g1_exp"), count=9)
        profile.add(("pub", "op.pairing"), count=1)
        aggregator.ingest(_profiled("pub", profile.to_dict()))
        frames = aggregator.hot_frames(limit=2)
        assert frames[0][0] == "op.g1_exp"
        assert frames[0][2] == pytest.approx(0.9)
        assert aggregator.to_json()["profile"]["hot_frames"][0]["frame"] == "op.g1_exp"


class TestCostLedger:
    def test_ledger_joins_counts_models_and_measurements(self):
        from repro.perf.calibrate import calibrate

        obs = Observability()
        run_demo_workload(6, seed=1, obs=obs)
        calibration = calibrate("TOY", vector_bits=6, policy_attributes=2, repetitions=1)
        rows = cost_ledger(obs.metrics, calibration)
        assert rows
        by_op = {(row.component, row.op) for row in rows}
        assert any(op == "hve.encrypt" for _c, op in by_op)
        assert any(op == "pairing" for _c, op in by_op)
        # sorted by descending modeled cost
        modeled = [row.modeled_s for row in rows]
        assert modeled == sorted(modeled, reverse=True)
        # instrumented ops carry a measurement and therefore a drift
        instrumented = [row for row in rows if row.op == "hve.encrypt"]
        assert instrumented and all(row.measured_s is not None for row in instrumented)
        assert all(row.drift is not None for row in instrumented)
        # pairing has a counter but no wall histogram: modeled only
        pairing = [row for row in rows if row.op == "pairing"]
        assert pairing and all(row.measured_s is None for row in pairing)
        text = format_ledger(rows)
        assert "hve.encrypt" in text and "totals:" in text
