"""Seeded, replayable fault schedules.

A chaos run is parameterized by exactly one integer seed: the workload,
the fault schedule, and every injection decision derive from
``random.Random(seed)`` — no wall clock, no ambient entropy — so a
failing run replays bit-identically from its seed, and a schedule can be
serialized to JSON, shipped in a bug report, and re-run verbatim.

The fault model (one :class:`Fault` per entry):

==============  ==============================================================
``drop``        lose matching frames on the wire (selected hit ordinals)
``delay``       hold matching frames back ``delay_s`` extra seconds
``reorder``     delay *selected* frames so later traffic overtakes them
``duplicate``   deliver matching frames twice, the copy ``delay_s`` later
``partition``   drop *everything* to/from ``node`` inside the window
==============  ==============================================================

Faults carry a ``[start, end)`` window measured from the chaos epoch
(the instant the injector is armed, i.e. the start of the publication
phase) and match links by ``src``/``dst`` pattern (``"*"`` wildcard,
``"sub*"`` prefix).  ``hits`` selects which matching frames (1-based
ordinals per fault) are affected; empty means all of them.

Schedule *generation* is deliberately budget-aware: loss-type faults
(drop, partition) are only generated on *retried* paths — the retrieval
path (subscriber ↔ anonymizer ↔ RS), and, since the reliable-publish
upgrade (PUBACK + bounded retransmit, see ``repro.mq.client``), the
publisher → DS publish path too.  The remaining unacknowledged casts
(DS → RS store, DS → subscriber deliver) get delay/reorder/duplicate
only: loss there is unrecoverable by client retrying (see
``docs/CHAOS.md`` for the fault-model rationale).  Replayed or
hand-built schedules can of course place faults anywhere, which is
exactly how the invariant checker's mutation tests manufacture failing
runs on purpose.

Sharded profiles (``ds_shards``/``rs_shards`` > 1) generate faults
against the shard names (``ds0``, ``rs1``, …) and may partition an RS
replica — replication plus retrieval failover must absorb it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from ..cluster.router import shard_names

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "FaultSchedule",
    "Profile",
    "PROFILES",
    "minimize_schedule",
]

FAULT_KINDS = ("drop", "delay", "duplicate", "reorder", "partition")


def _pattern_matches(pattern: str, name: str) -> bool:
    if pattern == "*" or pattern == name:
        return True
    return pattern.endswith("*") and name.startswith(pattern[:-1])


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: kind, link selector, time window, parameters."""

    kind: str
    start: float
    end: float
    src: str = "*"
    dst: str = "*"
    node: str = ""  # partition target; matches traffic in either direction
    delay_s: float = 0.0  # extra latency (delay/reorder) or copy gap (duplicate)
    hits: tuple[int, ...] = ()  # 1-based ordinals of matching frames; () = all

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")

    def in_window(self, t: float) -> bool:
        return self.start <= t < self.end

    def matches_link(self, src: str, dst: str) -> bool:
        if self.kind == "partition":
            return src == self.node or dst == self.node
        return _pattern_matches(self.src, src) and _pattern_matches(self.dst, dst)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "start": self.start, "end": self.end}
        if self.src != "*":
            out["src"] = self.src
        if self.dst != "*":
            out["dst"] = self.dst
        if self.node:
            out["node"] = self.node
        if self.delay_s:
            out["delay_s"] = self.delay_s
        if self.hits:
            out["hits"] = list(self.hits)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Fault":
        return cls(
            kind=data["kind"],
            start=data["start"],
            end=data["end"],
            src=data.get("src", "*"),
            dst=data.get("dst", "*"),
            node=data.get("node", ""),
            delay_s=data.get("delay_s", 0.0),
            hits=tuple(data.get("hits", ())),
        )


# What every profile shares.  Fault start times are sampled inside
# TRAFFIC_WINDOW_S: the simulator's publication burst completes within
# ~0.3s of the epoch, so windows anchored later would never see a frame.
TRAFFIC_WINDOW_S = 0.3
MAX_EXTRA_DELAY_S = 0.6
MAX_PARTITION_S = 0.9
# loss stays inside the runner's retry budget (chaos/runner.py), so a
# passing profile *should* pass — every delivery deviation is then a real
# bug, not an over-aggressive schedule
MAX_LOSS_HITS = 2


@dataclass(frozen=True)
class Profile:
    """Shape parameters for one named schedule generator."""

    name: str
    n_faults: int
    kinds: tuple[str, ...]
    subscribers: int = 3
    publications: int = 4
    horizon_s: float = 2.5
    # exercise the durability invariant against a WAL-backed RS
    durable: bool = False
    # -- sharded topology (repro.cluster) ---------------------------------
    # shard counts handed to P3SConfig; 1/1 keeps the classic
    # single-node names ("ds", "rs") so existing profiles replay the
    # same schedules byte-for-byte
    ds_shards: int = 1
    rs_shards: int = 1
    rs_replication: int = 1
    # partition faults pick their victim from this pool.  The anonymizer
    # sits exclusively on the retried path, so it is always safe; an RS
    # *replica* is safe only under replication >= 2 (the other replica
    # plus retrieval failover absorbs the outage).
    partition_targets: tuple[str, ...] = ("anon",)
    # -- SLO alerting closure (repro.obs.slo) ------------------------------
    # When True the runner evaluates the chaos SLO set over the run's
    # event timeline and checks the alerting invariant family: material
    # injected faults must fire their mapped burn-rate alerts, alerts
    # must clear after recovery, and a fault-free run must fire none.
    # Opt-in per profile because the property-based suites run arbitrary
    # seeds on smoke/default, where alert materiality is not guaranteed.
    alerts: bool = False


PROFILES: dict[str, Profile] = {
    profile.name: profile
    for profile in (
        Profile("smoke", 2, ("delay", "duplicate"), subscribers=2, publications=2),
        Profile("default", 5, ("drop", "delay", "duplicate", "reorder")),
        Profile("ci", 6, FAULT_KINDS, durable=True, alerts=True),
        Profile("heavy", 12, FAULT_KINDS, subscribers=4, publications=6,
                horizon_s=4.0, durable=True),
        Profile("partition", 3, ("partition", "drop"), durable=False),
        # sharded cluster under fire: 2 DS x 2 RS shards, 2-way
        # replication, durable stores; partitions may isolate an RS
        # replica and the invariants must still hold
        Profile("shard", 6, FAULT_KINDS, durable=True,
                ds_shards=2, rs_shards=2, rs_replication=2,
                partition_targets=("anon", "rs1")),
    )
}


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered list of faults plus its provenance (seed + profile)."""

    seed: int
    profile: str
    faults: tuple[Fault, ...] = field(default_factory=tuple)

    def without(self, index: int) -> "FaultSchedule":
        """A copy with fault ``index`` removed (the minimization step)."""
        kept = self.faults[:index] + self.faults[index + 1 :]
        return replace(self, faults=kept)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "profile": self.profile,
            "faults": [fault.to_dict() for fault in self.faults],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        return cls(
            seed=data["seed"],
            profile=data.get("profile", "replay"),
            faults=tuple(Fault.from_dict(f) for f in data["faults"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        return cls.from_dict(json.loads(text))

    @classmethod
    def generate(
        cls,
        seed: int,
        profile: str | Profile,
        subscriber_names: Sequence[str],
        publisher_name: str = "pub",
    ) -> "FaultSchedule":
        """Derive a schedule from ``random.Random(seed)`` alone.

        Link pools by loss class:

        * *retried* links (sub ↔ anon, anon ↔ rs, pub → ds): any fault
          kind — the retrieval retry budget absorbs loss on the first
          two; the PUBACK/retransmit protocol (the chaos runner always
          enables ``reliable_publish``) absorbs it on the third;
        * *benign* links (ds → sub, ds → rs): delay / reorder /
          duplicate only — loss on these DS-originated unacknowledged
          casts would be unrecoverable by design (documented gap);
        * partitions pick a victim from ``profile.partition_targets``
          (the anonymizer by default; sharded profiles may add an RS
          replica).

        Sharded profiles expand "ds"/"rs" into their shard names, so
        faults land on real links.
        """
        prof = PROFILES[profile] if isinstance(profile, str) else profile
        rng = random.Random(seed)
        subs = list(subscriber_names)
        ds_names = shard_names("ds", prof.ds_shards)
        rs_names = shard_names("rs", prof.rs_shards)
        retried: list[tuple[str, str]] = []
        for rs in rs_names:
            retried += [("anon", rs), (rs, "anon")]
        for name in subs:
            retried += [(name, "anon"), ("anon", name)]
        for ds in ds_names:
            retried.append((publisher_name, ds))
        benign = list(retried)
        benign += [(ds, rs) for ds in ds_names for rs in rs_names]
        benign += [(ds, name) for ds in ds_names for name in subs]
        faults: list[Fault] = []
        for _ in range(prof.n_faults):
            kind = rng.choice(prof.kinds)
            start = round(rng.uniform(0.0, TRAFFIC_WINDOW_S), 3)
            length = round(rng.uniform(0.3, prof.horizon_s * 0.5), 3)
            if kind == "partition":
                end = round(start + min(length, MAX_PARTITION_S), 3)
                faults.append(
                    Fault(kind, start, end, node=rng.choice(prof.partition_targets))
                )
                continue
            end = round(start + length, 3)
            if kind == "drop":
                src, dst = rng.choice(retried)
                count = rng.randint(1, MAX_LOSS_HITS)
                hits = tuple(sorted(rng.sample(range(1, 5), count)))
                faults.append(Fault(kind, start, end, src, dst, hits=hits))
            elif kind == "duplicate":
                src, dst = rng.choice(benign)
                hits = (rng.randint(1, 3),)
                gap = round(rng.uniform(0.01, 0.2), 3)
                faults.append(Fault(kind, start, end, src, dst, delay_s=gap, hits=hits))
            elif kind == "reorder":
                src, dst = rng.choice(benign)
                hits = (rng.randint(1, 3),)
                extra = round(rng.uniform(0.05, MAX_EXTRA_DELAY_S), 3)
                faults.append(Fault(kind, start, end, src, dst, delay_s=extra, hits=hits))
            else:  # delay: every matching frame in the window
                src, dst = rng.choice(benign)
                extra = round(rng.uniform(0.02, MAX_EXTRA_DELAY_S), 3)
                faults.append(Fault(kind, start, end, src, dst, delay_s=extra))
        return cls(seed=seed, profile=prof.name, faults=tuple(faults))


def minimize_schedule(
    schedule: FaultSchedule,
    still_fails: Callable[[FaultSchedule], bool],
) -> FaultSchedule:
    """Greedily shrink a failing schedule to a locally minimal fault set.

    Repeatedly tries removing one fault at a time, keeping any removal
    after which ``still_fails`` still returns True, until no single
    removal preserves the failure.  O(n²) runs worst case — fine for the
    ≤ a-dozen-fault schedules the generator emits — and the result is
    1-minimal: every remaining fault is necessary to reproduce.
    """
    current = schedule
    shrunk = True
    while shrunk and current.faults:
        shrunk = False
        for index in range(len(current.faults)):
            candidate = current.without(index)
            if still_fails(candidate):
                current = candidate
                shrunk = True
                break
    return current
