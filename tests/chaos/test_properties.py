"""Property-based chaos tests: random fault schedules, small workloads.

Two tiers, matching the cost of each property:

* cheap structural properties of schedules and injection (many
  Hypothesis examples) — round-trips, determinism, budget discipline;
* the headline delivery property (few examples, each a full crypto
  run): under any generated schedule whose loss stays within the retry
  budget — drops and partitions bounded in hit count / window length —
  every subscriber receives exactly its oracle set.
"""

from hypothesis import given, settings, strategies as st

from repro.chaos import Fault, FaultSchedule, run_chaos
from repro.chaos.inject import SimFaultInjector
from repro.chaos.schedule import MAX_LOSS_HITS, MAX_PARTITION_S, PROFILES
from repro.cluster.router import shard_names
from repro.net.network import Message, Network
from repro.net.simulator import Simulator

SUBS = ["sub00", "sub01"]

seeds = st.integers(min_value=0, max_value=2**31 - 1)
profile_names = st.sampled_from(sorted(PROFILES))


# a budget-respecting fault, the generator's contract in miniature:
# loss kinds only on the retried retrieval path, bounded hits/windows
budgeted_faults = st.one_of(
    st.builds(
        Fault,
        kind=st.just("drop"),
        start=st.floats(min_value=0.0, max_value=0.3),
        end=st.floats(min_value=0.5, max_value=1.0),
        src=st.sampled_from(["anon", "sub00", "sub01"]),
        dst=st.just("rs"),
        hits=st.sets(st.integers(min_value=1, max_value=4), min_size=1, max_size=2).map(
            lambda s: tuple(sorted(s))
        ),
    ).map(lambda f: Fault(f.kind, f.start, f.end, src=f.src, dst="rs" if f.src == "anon" else "anon", hits=f.hits)),
    st.builds(
        Fault,
        kind=st.sampled_from(["delay", "reorder"]),
        start=st.floats(min_value=0.0, max_value=0.3),
        end=st.floats(min_value=0.4, max_value=1.0),
        src=st.sampled_from(["ds", "pub", "anon"]),
        dst=st.sampled_from(["sub*", "ds", "rs"]),
        delay_s=st.floats(min_value=0.01, max_value=0.4),
    ),
    st.builds(
        Fault,
        kind=st.just("duplicate"),
        start=st.floats(min_value=0.0, max_value=0.3),
        end=st.floats(min_value=0.4, max_value=1.0),
        src=st.sampled_from(["ds", "anon"]),
        dst=st.sampled_from(["sub*", "rs"]),
        delay_s=st.floats(min_value=0.01, max_value=0.2),
        hits=st.just((1,)),
    ),
    st.builds(
        Fault,
        kind=st.just("partition"),
        start=st.floats(min_value=0.0, max_value=0.2),
        end=st.floats(min_value=0.3, max_value=0.6),  # heals within the budget
        node=st.just("anon"),
    ),
)

budgeted_schedules = st.lists(budgeted_faults, min_size=0, max_size=4).map(
    lambda faults: FaultSchedule(seed=0, profile="property", faults=tuple(faults))
)


class TestScheduleProperties:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, profile=profile_names)
    def test_generation_is_a_pure_function_of_the_seed(self, seed, profile):
        a = FaultSchedule.generate(seed, profile, SUBS)
        b = FaultSchedule.generate(seed, profile, SUBS)
        assert a == b

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, profile=profile_names)
    def test_json_round_trip_is_lossless(self, seed, profile):
        schedule = FaultSchedule.generate(seed, profile, SUBS)
        assert FaultSchedule.from_json(schedule.to_json()) == schedule

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, profile=profile_names)
    def test_generated_loss_respects_the_retry_budget(self, seed, profile):
        prof = PROFILES[profile]
        retried = set()
        for rs in shard_names("rs", prof.rs_shards):
            retried |= {("anon", rs), (rs, "anon")}
        for name in SUBS:
            retried |= {(name, "anon"), ("anon", name)}
        for ds in shard_names("ds", prof.ds_shards):
            retried.add(("pub", ds))
        for fault in FaultSchedule.generate(seed, profile, SUBS).faults:
            if fault.kind == "drop":
                assert (fault.src, fault.dst) in retried
                assert 1 <= len(fault.hits) <= MAX_LOSS_HITS
            elif fault.kind == "partition":
                assert fault.node in prof.partition_targets
                assert fault.end - fault.start <= MAX_PARTITION_S + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(schedule=budgeted_schedules, frames=st.integers(min_value=1, max_value=8))
    def test_injector_conserves_or_drops_frames(self, schedule, frames):
        """Every transmitted frame is delivered 0, 1, or 2 times — never lost
        by accounting, never multiplied beyond one duplicate."""
        sim = Simulator()
        network = Network(sim, latency_s=0.01)
        src = network.add_host("anon")
        network.add_host("rs")
        network.set_fault_injector(SimFaultInjector(schedule, sim))
        for _ in range(frames):
            src.send("rs", Message("m", b"x", size_bytes=10))
        sim.run()
        delivered = len(network.host("rs").inbox)
        assert 0 <= delivered <= 2 * frames


class TestDeliveryProperty:
    """The headline invariant, over random budget-respecting schedules.

    Each example is a full HVE/CP-ABE run, so the example count is kept
    deliberately small; the seeded profile battery in test_runner.py
    covers breadth, this covers schedule shapes no profile generates.
    """

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=999), schedule=budgeted_schedules)
    def test_delivery_matches_oracle_under_budgeted_faults(self, seed, schedule):
        report = run_chaos(seed, "smoke", schedule=schedule)
        assert report.passed, [f.to_dict() for f in report.failures()]

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=999))
    def test_generated_profile_schedules_pass(self, seed):
        report = run_chaos(seed, "default")
        assert report.passed, [f.to_dict() for f in report.failures()]
