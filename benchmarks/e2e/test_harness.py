"""Self-tests of the benchmark harness (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py

They check the harness, not the program: the statistics, that inputs
follow the seed, the tracer's self-time arithmetic and clean removal,
that the oracle notices what it must, and that a smoke run emits every
metric BENCHMARK.json declares.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from oracle import Oracle, expected_receivers  # noqa: E402
from speed import REFERENCE_UNIT_S, SpeedGauge  # noqa: E402
from stats import percentile, tail_percentile  # noqa: E402
from tracing import TARGETS, Target, Tracer  # noqa: E402
from workloads import WORKLOADS, Publication, SubscriberSpec, generate  # noqa: E402


# -- statistics -------------------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(1000) == 99  # 10 beyond rank 990
    assert tail_percentile(999) == 95
    assert tail_percentile(200) == 95  # 10 beyond rank 190
    assert tail_percentile(199) == 90
    assert tail_percentile(100) == 90
    assert tail_percentile(99) == 75
    assert tail_percentile(40) == 75
    assert tail_percentile(12) == 75  # too small for any rung: lowest rung


def test_percentile_is_a_measured_value():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 75) == 4.0
    assert percentile(values, 100) == 5.0
    assert percentile([7.0], 99) == 7.0


def test_speed_factor_uses_the_samples_around_the_interval():
    gauge = SpeedGauge()
    # a machine at reference speed for 10 s, then twice as slow
    for tick in range(200):
        gauge.at.append(tick * 0.1)
        gauge.unit_s.append(REFERENCE_UNIT_S * (1 if tick < 100 else 2))
    assert gauge.factor(2.0, 5.0) == 1.0
    assert gauge.factor(14.0, 16.0) == 0.5  # a time measured there counts half
    assert gauge.factor(15.0) == 0.5
    assert gauge.factor(500.0) == 0.5  # no sample near: the nearest ones
    gauge.sample()  # and a real unit takes a sane, positive time
    assert 20e-6 < gauge.unit_s[-1] < 0.1


# -- inputs follow the seed ----------------------------------------------------------


def test_inputs_are_a_function_of_the_seed():
    for workload in WORKLOADS.values():
        first = generate(workload, 7, 20)
        again = generate(workload, 7, 20)
        other = generate(workload, 8, 20)
        assert first == again
        assert first.schedule != other.schedule or not first.schedule
        assert [p.payload for p in first.latency] != [p.payload for p in other.latency]
        assert len(first.latency) == len(other.latency)
        assert first.schedule == sorted(first.schedule)
        # every measured phase has a publication nobody should receive
        for phase in (first.latency, first.throughput):
            receivers = [expected_receivers(first.subscribers, p) for p in phase]
            assert any(not r for r in receivers) and any(receivers)


# -- tracer ----------------------------------------------------------------------------


def _spin(seconds: float) -> None:
    until = time.perf_counter() + seconds
    while time.perf_counter() < until:
        pass


def _synthetic_layers() -> tuple[types.ModuleType, tuple[Target, ...]]:
    module = types.ModuleType("e2e_selftest_layers")

    class Inner:
        def step(self, seconds):
            _spin(seconds)

    class Outer:
        def run(self):
            _spin(0.002)
            Inner().step(0.004)
            _spin(0.002)
            Inner().step(0.003)

    class Service:
        async def call(self, seconds):
            Inner().step(seconds)
            await asyncio.sleep(0.02)
            Inner().step(seconds)

        async def batch(self):
            _spin(0.002)
            await asyncio.gather(self.call(0.004), self.call(0.003))

    module.Inner, module.Outer, module.Service = Inner, Outer, Service
    sys.modules[module.__name__] = module
    targets = tuple(
        Target(layer, module.__name__, qualname)
        for layer, qualname in (
            ("inner", "Inner.step"),
            ("outer", "Outer.run"),
            ("service", "Service.call"),
            ("batch", "Service.batch"),
        )
    )
    return module, targets


def _union(intervals) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def test_sync_self_time_is_duration_minus_union_of_children():
    module, targets = _synthetic_layers()
    tracer = Tracer(targets)
    tracer.install()
    try:
        module.Outer().run()
    finally:
        tracer.uninstall()
    outer = next(s for s in tracer.spans if targets[s[2]].layer == "outer")
    children = [s for s in tracer.spans if s[1] == outer[0]]
    assert len(children) == 2
    duration = outer[4] - outer[3]
    expected = duration - _union((c[3], c[4]) for c in children)
    assert abs(outer[6] - expected) < 1e-9
    assert 0.0035 < outer[6] < duration
    # self times partition the busy time: nothing is counted twice
    assert abs(sum(s[6] for s in tracer.spans) - duration) < 1e-9


def test_async_wait_is_not_self_and_overlapping_children_never_go_negative():
    module, targets = _synthetic_layers()
    tracer = Tracer(targets)
    tracer.install()
    started = time.perf_counter()
    try:
        asyncio.run(module.Service().batch())
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - started
    by_layer = {}
    for span in tracer.spans:
        by_layer.setdefault(targets[span[2]].layer, []).append(span)
    batch = by_layer["batch"][0]
    calls = by_layer["service"]
    assert len(calls) == 2 and len(by_layer["inner"]) == 4
    for call in calls:
        assert call[1] == batch[0]  # causal parent survives the hop into a task
        duration, busy, own = call[4] - call[3], call[5], call[6]
        assert duration >= 0.02 + busy - 1e-4  # the sleep is wait ...
        assert busy < 0.012 and 0 <= own < 0.002  # ... and the spinning is the children's
    # the two calls overlap in wall time; subtracting their durations from
    # the batch's would go negative, its own slices do not
    assert _union((c[3], c[4]) for c in calls) < sum(c[4] - c[3] for c in calls)
    assert 0.0015 < batch[6] < 0.01
    total_self = sum(s[6] for s in tracer.spans)
    assert 0.016 - 1e-3 < total_self < wall


def test_wrappers_are_removed_after_a_traced_run():
    import importlib

    def current(target: Target):
        module = importlib.import_module(target.module)
        owner, _, attr = target.qualname.rpartition(".")
        return getattr(module, owner).__dict__[attr] if owner else getattr(module, attr)

    before = [current(t) for t in TARGETS]
    import repro.crypto.group as group_module

    bound_before = group_module.tate_pairing
    tracer = Tracer()
    tracer.install()
    assert all(current(t) is not b for t, b in zip(TARGETS, before))
    assert group_module.tate_pairing is not bound_before  # ``from x import f`` sites too
    tracer.uninstall()
    assert all(current(t) is b for t, b in zip(TARGETS, before))
    assert group_module.tate_pairing is bound_before


# -- oracle ---------------------------------------------------------------------------------


def _tiny_population():
    subscribers = [
        SubscriberSpec("wants", frozenset({"org:acme"}), {"attr00": "v01"}),
        SubscriberSpec("denied", frozenset({"org:other"}), {"attr00": "v01"}),
        SubscriberSpec("elsewhere", frozenset({"org:acme"}), {"attr01": "v05"}),
    ]
    publication = Publication(
        0, {"attr00": "v01", "attr01": "v00"}, (0).to_bytes(8, "big") + b"body", ("org:acme",), 60.0
    )
    return subscribers, publication


def test_oracle_expects_interest_match_and_policy():
    subscribers, publication = _tiny_population()
    assert expected_receivers(subscribers, publication) == {"wants"}


def test_oracle_catches_spurious_missing_and_wrong_deliveries():
    subscribers, publication = _tiny_population()
    oracle = Oracle(subscribers)
    assert oracle.expect(publication) == 1
    assert oracle.missing() == [(0, "wants")]  # nothing delivered yet
    assert oracle.observe("denied", publication.payload, 1.0) is None  # spurious
    assert oracle.observe("wants", publication.payload[:-1] + b"!", 1.0) is None  # altered
    assert oracle.missing() == [(0, "wants")]
    assert oracle.observe("wants", publication.payload, 2.0) == 0
    assert oracle.missing() == [] and oracle.outstanding(0) == 0
    assert oracle.observe("wants", publication.payload, 3.0) is None  # duplicate
    assert len(oracle.wrong) == 3


# -- the whole command ----------------------------------------------------------------------------


def test_smoke_emits_every_declared_metric(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    declared = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    results = json.loads(completed.stdout.strip().splitlines()[-1])["workloads"]
    assert set(results) == set(WORKLOADS)
    for name, passes in results.items():
        emitted = passes["smoke"]["metrics"]
        assert {k: v["unit"] for k, v in emitted.items()} == declared, name
        assert passes["smoke"]["failed"] == 0 and passes["smoke"]["correct"]
