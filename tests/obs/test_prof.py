"""repro.obs.prof: profile model round-trips, sampler bounds, the
deterministic-replay contract, and the op-count sampler's cost property."""

from __future__ import annotations

import copy
import json
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ProfileError, ReproError
from repro.obs.aggregate import TelemetryAggregator
from repro.obs.observability import Observability
from repro.obs.prof import (
    StackSampler,
    cost_ledger,
    diff_profiles,
    format_diff,
    format_ledger,
    format_report,
    load_profile,
    record_demo,
)
from repro.obs.prof import sampler as sampler_module
from repro.obs.prof.model import OVERFLOW_FRAME, Profile
from repro.obs.prof.sampler import DeterministicSampler, _StackTable
from repro.obs.prof.workload import run_demo_workload

from ..hostile import hostile


class TestProfileModel:
    def _sample_profile(self) -> Profile:
        profile = Profile(mode="det", origin="test-1", meta={"every": 4})
        profile.add(("pub", "pbe.encrypt", "op.pairing"), count=3)
        profile.add(("pub", "pbe.encrypt", "op.g1_exp"), count=5)
        profile.add(("ds", "ds.fan_out", "op.hve.match"), count=2)
        return profile

    def test_dict_round_trip_is_lossless(self):
        profile = self._sample_profile()
        profile.add(("pub", "op.pairing"), count=1, wall_s=0.1 + 0.2, cpu_s=1e-9)
        back = Profile.from_dict(json.loads(json.dumps(profile.to_dict())))
        assert back.to_dict() == profile.to_dict()
        assert (back.mode, back.origin, back.meta) == ("det", "test-1", {"every": 4})

    def test_load_profile_reads_the_dict_only(self, tmp_path):
        profile = self._sample_profile()
        recording = tmp_path / "p.prof.json"
        recording.write_text(json.dumps(profile.to_dict()))
        assert load_profile(str(recording)).to_dict() == profile.to_dict()
        folded = tmp_path / "p.folded"
        folded.write_text(profile.folded())
        with pytest.raises(ProfileError, match="p.folded: folded text is an export"):
            load_profile(str(folded))
        recording.write_text('{"samples": 5}')
        with pytest.raises(ProfileError, match="p.prof.json: a profile is an object"):
            load_profile(str(recording))

    @pytest.mark.parametrize(
        "change",
        [
            {"version": 2},
            {"mode": "cpu"},
            {"origin": 7},
            {"meta": []},
            {"samples": {}},
            {"stack": ["a", 1]},
            {"stack": "a;b"},
            {"count": -1},
            {"count": 1.5},
            {"count": True},
            {"count": 10**400},
            {"wall_s": -0.5},
            {"wall_s": float("nan")},
            {"cpu_s": float("inf")},
            {"extra": 1},
        ],
    )
    def test_from_dict_rejects(self, change):
        document = self._sample_profile().to_dict()
        (key, value), = change.items()
        if key in document:
            document[key] = value
        else:
            document["samples"][0][key] = value
        with pytest.raises(ProfileError):
            Profile.from_dict(document)

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

    def test_stack_table_overflow_preserves_weight(self, monkeypatch):
        monkeypatch.setattr(sampler_module, "MAX_STACKS", 4)
        table = _StackTable()
        for index in range(10):
            table.add((f"frame-{index}",), 1, 0.0, 0.0)
        profile = table.snapshot(Profile(mode="det"))
        # cardinality capped at MAX_STACKS + the overflow bucket...
        assert len(profile.samples) <= 5
        assert profile.samples[(OVERFLOW_FRAME,)].count == table.overflowed == 6
        # ...but no weight was dropped
        assert profile.total("count") == 10


class TestStackSampler:
    def test_stack_table_stays_bounded_under_soak(self, monkeypatch):
        monkeypatch.setattr(sampler_module, "MAX_STACKS", 256)
        sampler = StackSampler(hz=50.0)
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
            sampler.start()
            try:
                with obs.tracer.span("pbe.encrypt", "pub"):
                    while time.perf_counter() < deadline:
                        sum(i * i for i in range(500))
            finally:
                sampler.stop()
            profile = sampler.profile()
        finally:
            obs.uninstall()
        assert sampler._thread is None  # stop() joined it
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

    def test_a_malformed_profile_is_refused_at_ingest_naming_the_service(self):
        aggregator = TelemetryAggregator()
        bad = {**self._profile_dict("wall-77-1"), "samples": 5}
        with pytest.raises(ProfileError, match="service 'ds' sent a malformed profile"):
            aggregator.ingest(_profiled("ds", bad))
        assert aggregator.services() == []  # nothing of the snapshot was kept

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


def _sample_documents() -> list[dict]:
    det = Profile(mode="det", origin="det-1", meta={"every": 8, "seed": 7})
    det.add(("pub", "pbe.encrypt", "op.g1_exp"), count=5)
    det.add(("alice", "op.hve.match"), count=2)
    wall = Profile(mode="wall", origin="wall-1", meta={"hz": 97.0, "ticks": 3})
    wall.add(("ds", "ds.fan_out", "repro.crypto.field.fq_inv"), count=2, wall_s=0.0125, cpu_s=0.01)
    wall.add((), count=1, wall_s=0.5, cpu_s=0.0)
    return [det.to_dict(), wall.to_dict()]


PROFILE_DOCUMENTS = _sample_documents()
# the escaping shapes again, inside an otherwise whole document
WHOLE = b'{"version": 1, "mode": "det", "origin": "o", "meta": {}, "samples": %s}'
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def grafted(draw) -> bytes:
    """A valid profile document with one value — a top-level field, a
    sample field, or one frame — replaced by any JSON value."""
    document = copy.deepcopy(draw(st.sampled_from(PROFILE_DOCUMENTS)))
    sample = draw(st.sampled_from(document["samples"]))
    slots = [(document, key) for key in document] + [(sample, key) for key in sample]
    slots += [(sample["stack"], index) for index in range(len(sample["stack"]))]
    target, key = draw(st.sampled_from(slots))
    target[key] = draw(JSON_VALUES)
    return json.dumps(document).encode()


@settings(max_examples=300, deadline=None)
@given(hostile([json.dumps(d).encode() for d in PROFILE_DOCUMENTS], lambda blob: []) | grafted())
@example(b"[]")
@example(b'{"samples": 5}')
@example(b'{"samples": [{"stack": 5}]}')
@example(b'{"samples": [{"stack": ["a"], "count": "x"}]}')
@example(b'{"samples": [{}]}')
@example(WHOLE % b"5")
@example(WHOLE % b'[{"stack": 5, "count": 1, "wall_s": 0, "cpu_s": 0}]')
@example(WHOLE % b'[{"stack": ["a"], "count": "x", "wall_s": 0, "cpu_s": 0}]')
@example(WHOLE % b'[{"stack": [1, 2], "count": 1, "wall_s": 0, "cpu_s": 0}]')
@example(WHOLE % b"[{}]")
def test_hostile_profile_documents_round_trip_or_are_rejected(blob):
    """A profile document off the wire or the disk either decodes to a
    profile that re-encodes to itself (and reports without failing), or is
    rejected with a :class:`ReproError`."""
    try:
        data = json.loads(blob)
    except ValueError:
        return  # not JSON at all: the caller's JSON parser refuses it
    try:
        profile = Profile.from_dict(data)
    except ReproError:
        return
    again = Profile.from_dict(json.loads(json.dumps(profile.to_dict())))
    assert json.dumps(again.to_dict()) == json.dumps(profile.to_dict())
    format_report(profile)
    format_diff(diff_profiles(profile, again))


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
