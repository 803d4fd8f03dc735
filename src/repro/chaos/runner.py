"""Seeded chaos runs: workload + schedule + injection + invariant report.

One :func:`run_chaos` call is the unit of chaos testing:

1. derive a pub/sub workload and a fault schedule from the seed;
2. compute the plaintext delivery oracle;
3. stand up a :class:`~repro.core.system.P3SSystem`, run the
   subscription phase fault-free, then arm the injector and publish
   through the fault window;
4. run to quiescence and evaluate the full invariant catalogue
   (delivery, privacy, durability, liveness);
5. emit a :class:`ChaosReport` whose JSON is bit-deterministic for a
   given seed — two runs with the same seed produce identical fault
   schedules, delivery sets, and invariant reports.

Determinism ground rules honored here: ``random.Random(seed)`` is the
only entropy source for schedules/workloads; the report carries no wall
clock, no filesystem paths, and no per-run randomized identifiers
(GUIDs/ciphertexts vary per run — delivery sets are compared as
plaintext payloads, the substrate-independent observable).

``minimize`` greedily shrinks a failing schedule to a 1-minimal fault
set by re-running the same seed with candidate schedules — possible
only because a schedule fully determines the run.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field

from ..core.config import P3SConfig
from ..core.sightings import Recorder
from ..core.system import P3SSystem
from ..live.scenario import delivered, play_on_simulator
from ..obs.slo import SloEngine, chaos_slos
from ..store.wal import WalEngine
from .inject import SimFaultInjector
from .invariants import (
    InvariantResult,
    check_alerting,
    check_delivery,
    check_durability,
    check_liveness,
    check_privacy,
)
from .oracle import chaos_schema, expected_deliveries, generate_scenario
from .schedule import PROFILES, FaultSchedule, Profile, minimize_schedule

__all__ = ["ChaosReport", "run_chaos", "minimize"]


@dataclass
class ChaosReport:
    """Everything one chaos run produced, JSON-ready and deterministic."""

    seed: int
    profile: str
    passed: bool
    schedule: dict
    workload: dict
    expected: dict[str, list[str]]
    actual: dict[str, list[str]]
    applied_faults: list[dict]
    invariants: list[InvariantResult] = field(default_factory=list)
    # the SLO engine's report over the run's event timeline; present
    # only for profiles with alerts=True (kept out of other profiles'
    # dicts so their historical reports stay byte-identical)
    slo: dict | None = None

    def failures(self) -> list[InvariantResult]:
        return [result for result in self.invariants if not result.passed]

    def to_dict(self) -> dict:
        out = {
            "seed": self.seed,
            "profile": self.profile,
            "passed": self.passed,
            "schedule": self.schedule,
            "workload": self.workload,
            "expected": self.expected,
            "actual": self.actual,
            "applied_faults": self.applied_faults,
            "invariants": [result.to_dict() for result in self.invariants],
        }
        if self.slo is not None:
            out["slo"] = self.slo
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _payload_map(delivery_map) -> dict[str, list[str]]:
    return {
        name: [payload.decode("utf-8", "replace") for payload in payloads]
        for name, payloads in sorted(delivery_map.items())
    }


# SLO evaluation cadence over the run's simulated timeline: fine enough
# that the page rule's 0.25s short window always gets several looks
# while a bad event is inside it.
SLO_TICK_S = 0.05
# Ticks continue this far past the last event so the slowest window
# (the ticket rule's 2.5s long window) fully drains and every fired
# alert gets its chance to clear before `alerting.all_cleared` runs.
SLO_CLEAR_MARGIN_S = 2.6
# delivery-latency SLO threshold (simulated seconds) for the chaos
# engine; sits above the fault-free ceiling (base pipeline + one natural
# retrieve-before-store retry) so only injected faults breach it
LATENCY_SLO_S = 0.8
# The retry budget every subscriber is hardened to: the schedule
# generator keeps loss windows and hit counts inside it.
RETRIEVAL_RETRIES = 8
RETRY_DELAY_S = 0.2
CALL_TIMEOUT_S = 0.6


def _slo_report(system, publisher, expected, epoch: float) -> dict:
    """Replay the run's delivery timeline through a chaos SLO engine.

    Every event is a deterministic function of simulated time, so the
    resulting report (alert history included) is bit-identical across
    replays of the same seed:

    * ``delivery_latency`` — one value event per delivery,
      ``delivered_at - submitted_at`` via the publication id;
    * ``delivery_integrity`` — good per delivery, bad at each
      duplicate-suppression instant (the wire duplicated a frame);
    * ``delivery_completeness`` — good per oracle-expected payload
      delivered, bad at quiescence for each one that never arrived.

    Times are rebased to the chaos epoch (injector arming), matching the
    fault schedule's clock, and the engine is ticked on a fixed grid
    through ``SLO_CLEAR_MARGIN_S`` past the last event.
    """
    engine = SloEngine(chaos_slos(latency_threshold_s=LATENCY_SLO_S))
    submitted = {
        record.publication_id: record.submitted_at for record in publisher.published
    }
    events: list[tuple[float, str, dict]] = []
    for name, sub in sorted(system.subscribers.items()):
        for delivery in sub.stats.deliveries:
            at = delivery.delivered_at - epoch
            latency = delivery.delivered_at - submitted[delivery.publication_id]
            events.append((at, "delivery_latency", {"value": latency}))
            events.append((at, "delivery_integrity", {"good": True}))
        for suppressed_at in sub.stats.duplicate_suppressed_at:
            events.append((suppressed_at - epoch, "delivery_integrity", {"good": False}))
    quiesce_t = system.now - epoch
    for name in sorted(expected):
        sub = system.subscribers.get(name)
        deliveries = list(sub.stats.deliveries) if sub is not None else []
        remaining = list(expected.get(name, ()))
        for delivery in deliveries:
            if delivery.payload in remaining:
                remaining.remove(delivery.payload)
                events.append(
                    (delivery.delivered_at - epoch, "delivery_completeness", {"good": True})
                )
        for _missing in remaining:
            events.append((quiesce_t, "delivery_completeness", {"good": False}))
    events.sort(key=lambda event: event[0])
    for at, slo, kwargs in events:
        engine.record(slo, at=round(at, 9), **kwargs)
    last_t = events[-1][0] if events else 0.0
    ticks = int((last_t + SLO_CLEAR_MARGIN_S) / SLO_TICK_S) + 1
    for index in range(ticks + 1):
        engine.evaluate(round(index * SLO_TICK_S, 6))
    return engine.report()


def run_chaos(
    seed: int,
    profile: str = "default",
    schedule: FaultSchedule | None = None,
    mutate=None,
) -> ChaosReport:
    """One seeded chaos run; see the module docstring for the phases.

    ``schedule`` replays/overrides the generated one (same-seed workload,
    different faults — the replay and minimization entry point).
    ``mutate(system)`` is a test seam: called after the subscription
    phase, before the fault window, so mutation tests can break the
    system on purpose (disable retries, disable dedup, report a sighting
    no server should have) and prove the invariants catch it.
    A durable profile's WAL lives in a temp directory the run removes.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {sorted(PROFILES)}")
    prof: Profile = PROFILES[profile]
    scenario = generate_scenario(seed, prof.subscribers, prof.publications)
    expected = expected_deliveries(scenario)
    if schedule is None:
        schedule = FaultSchedule.generate(
            seed, prof, [spec.name for spec in scenario.subscribers], scenario.publisher_name
        )

    data_dir = tempfile.mkdtemp(prefix="p3s-chaos-") if prof.durable else None
    # chaos always publishes reliably: the schedule generator may drop
    # publish frames (pub -> ds is in the retried pool), and the
    # PUBACK/retransmit protocol is what makes that loss recoverable
    config = P3SConfig(
        schema=chaos_schema(),
        ds_shards=prof.ds_shards,
        rs_shards=prof.rs_shards,
        rs_replication=prof.rs_replication,
        reliable_publish=True,
    )
    if prof.durable:
        config = config.with_(
            store_backend="wal",
            data_dir=data_dir,
            store_fsync=False,  # crash realism comes from the fault plan, not fsync cost
            store_snapshot_every=8,
        )

    system = None
    try:
        system = P3SSystem(config)

        def harden(subscriber) -> None:
            # retry hardening: the profile's loss windows stay inside
            # this budget, so delivery deviations are real bugs
            subscriber.retrieval_retries = RETRIEVAL_RETRIES
            subscriber.retry_delay_s = RETRY_DELAY_S
            subscriber.call_timeout_s = CALL_TIMEOUT_S

        injector = SimFaultInjector(schedule, system.sim)

        def open_fault_window() -> None:
            # the subscription phase ran fault-free; break the system on
            # purpose if asked, then arm the injector for the publications
            if mutate is not None:
                mutate(system)
            injector.arm(system.now)
            system.set_fault_injector(injector)

        with Recorder() as recorder:  # what the servers opened, for the privacy checks
            publisher = play_on_simulator(system, scenario, harden, open_fault_window)
        system.set_fault_injector(None)  # ran through the fault window, to quiescence

        actual = delivered(system.subscribers)
        delivered_ids = {
            name: [d.publication_id for d in sub.stats.deliveries]
            for name, sub in sorted(system.subscribers.items())
        }

        invariants: list[InvariantResult] = []
        invariants += check_delivery(expected, actual, delivered_ids)
        invariants += check_privacy(system, recorder, [p.payload for p in scenario.publications])
        if prof.durable:
            invariants += _check_store_durability(system, data_dir)
        invariants += check_liveness(system, expected, actual)
        slo_section = None
        if prof.alerts:
            slo_section = _slo_report(system, publisher, expected, injector.epoch)
            invariants += check_alerting(
                slo_section, injector.applied_summary(), schedule.to_dict()
            )

        report = ChaosReport(
            seed=seed,
            profile=prof.name,
            passed=all(result.passed for result in invariants),
            schedule=schedule.to_dict(),
            workload={
                "subscribers": [
                    {
                        "name": spec.name,
                        "attributes": sorted(spec.attributes),
                        "interests": [i.to_json() for i in spec.interests],
                    }
                    for spec in scenario.subscribers
                ],
                "publications": [
                    {
                        "metadata": dict(pub.metadata),
                        "payload": pub.payload.decode(),
                        "policy": pub.policy,
                    }
                    for pub in scenario.publications
                ],
            },
            expected=_payload_map(expected),
            actual=_payload_map(actual),
            applied_faults=injector.applied_summary(),
            invariants=invariants,
            slo=slo_section,
        )
        return report
    finally:
        if system is not None:
            system.close()
        if data_dir is not None:
            shutil.rmtree(data_dir, ignore_errors=True)


def _check_store_durability(system, data_dir: str) -> list[InvariantResult]:
    """Crash-and-recover every RS shard's engine in place, then compare.

    The committed state is what the engine answers *now* (every write of
    the run completed); the crash is simulated the way the store battery
    does it — drop the handle without close, reopen the directory — so
    recovery runs the real WAL replay path under whatever append/snapshot
    interleaving the faulted network traffic produced.  Sharded profiles
    check each shard's directory and label the results so a failing
    replica is identifiable; single-shard reports keep the historical
    unlabelled names.
    """
    results: list[InvariantResult] = []
    multi = len(system.rs_shards) > 1
    for name, rs in sorted(system.rs_shards.items()):
        committed = dict(rs.store.engine.items("items"))
        # a real crash runs no destructors: abandon the handle, reopen fresh
        recovered_engine = WalEngine(os.path.join(data_dir, name), fsync=False)
        try:
            recovered = dict(recovered_engine.items("items"))
        finally:
            recovered_engine.close()
        rows = check_durability(committed, recovered)
        if multi:
            rows = [
                InvariantResult(row.family, f"{row.name}[{name}]", row.passed, row.detail)
                for row in rows
            ]
        results += rows
    return results


def minimize(
    seed: int,
    profile: str = "default",
    schedule: FaultSchedule | None = None,
) -> tuple[FaultSchedule, ChaosReport]:
    """Shrink a failing run's schedule to a 1-minimal failing fault set.

    Returns ``(minimal_schedule, its_report)``.  When the initial run
    passes, returns it unchanged — nothing to shrink.
    """
    report = run_chaos(seed, profile, schedule)
    if report.passed:
        return (
            schedule
            if schedule is not None
            else FaultSchedule.from_dict(report.schedule),
            report,
        )
    base = schedule if schedule is not None else FaultSchedule.from_dict(report.schedule)

    def still_fails(candidate: FaultSchedule) -> bool:
        return not run_chaos(seed, profile, candidate).passed

    minimal = minimize_schedule(base, still_fails)
    return minimal, run_chaos(seed, profile, minimal)
