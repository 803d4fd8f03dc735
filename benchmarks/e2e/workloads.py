"""The four workloads: what each deploys, what it sends, and why.

A :class:`Workload` is a fixed description; :func:`generate` turns it
plus a seed and a measuring time into :class:`Inputs` — the population,
every publication (metadata, payload bytes, policy), the open-loop
arrival schedule and the churn order.  The program under test sees only
those generated inputs.

Counts are sized, not timed: each phase sends ``rate x share x seconds``
publications, with the rates below taken from the seed commit on a
2-core box, so the same ``--seconds`` always means the same work and the
delivery counts (hence the tail percentile) are deterministic.  The
drivers additionally stop a phase that overruns its share by half, so a
much slower machine cannot break the time cap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = [
    "WORKLOADS",
    "Workload",
    "SubscriberSpec",
    "Publication",
    "Inputs",
    "generate",
]

# The default 40-bit metadata space of repro.core.default_schema():
# ten attributes of sixteen values each.
ATTRIBUTES = tuple(f"attr{i:02d}" for i in range(10))
VALUES = tuple(f"v{j:02d}" for j in range(16))
INTEREST_ATTRIBUTE = ATTRIBUTES[0]  # the one matching subscribers constrain

MISS_EVERY = 8  # one measured publication in eight matches nobody
PAYLOAD_INDEX_BYTES = 8  # every payload starts with its publication index


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see README.md for the rationale of each)."""

    name: str
    why: str
    substrate: str  # "live" (asyncio TCP loopback) or "sim" (discrete-event)
    config: dict  # P3SConfig overrides
    subscribers: int
    matching: int  # subscribers whose interest matches a hit publication
    denied: int  # of those, how many lack the policy's attributes
    policy: tuple[str, ...]  # a conjunction of CP-ABE attributes
    payload_bytes: int
    # how many of the nine non-interest attributes change from one
    # publication to the next (the rest keep a seeded constant): each
    # changing bit doubles the comb-table bases HVE.encrypt touches
    varying_attributes: int
    limit_ms: float  # a delivery later than this is not on time
    seed_capacity_pub_s: float  # closed-loop publications/s at the seed commit
    latency_share: float  # of --seconds spent in the latency phase
    throughput_share: float  # of --seconds spent in the throughput phase
    # latency phase: open loop at this many publications/s, or None for
    # a closed loop with one publication in flight
    open_loop_pub_s: float | None = None
    in_flight: int = 1  # throughput phase, live: closed-loop window
    batch: int = 1  # throughput phase, simulator: publications per run()
    warmup_pubs: int = 3  # a base earns its comb table on its third use
    churn: bool = False  # unsubscribe + subscribe before every publication
    ttl_s: float = 3600.0
    subscribe_probes: int = 40  # timed subscribe() calls after set-up
    setup_repeats: int = 3  # set-ups per untraced run; setup_s is their median


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="live-fanout",
            why=(
                "16 subscribers x pbe.query plus a per-subscriber metadata broadcast "
                "through the AEAD record layer: match cost x subscribers, many small "
                "frames. Open loop 1.3 pub/s, then closed loop 2 in flight."
            ),
            substrate="live",
            config={},
            subscribers=16,
            matching=4,
            denied=1,
            policy=("org:acme",),
            payload_bytes=1024,
            varying_attributes=2,
            limit_ms=1500.0,
            seed_capacity_pub_s=3.4,
            latency_share=0.65,
            throughput_share=0.3,
            open_loop_pub_s=1.3,
            in_flight=2,
        ),
        Workload(
            name="live-payload",
            why=(
                "8 KiB payload, 2 subscribers: ChaCha20+HMAC passes and per-byte "
                "wire/channel cost dominate, pairing nearly idle - the bypass for "
                "pairing/HVE work. Open loop 1.5 pub/s, then closed loop 2 in flight."
            ),
            substrate="live",
            config={},
            subscribers=2,
            matching=2,
            denied=0,
            policy=("org:acme",),
            payload_bytes=8 * 1024,
            varying_attributes=2,
            limit_ms=2500.0,
            seed_capacity_pub_s=3.8,
            latency_share=0.65,
            throughput_share=0.3,
            open_loop_pub_s=1.5,
            in_flight=2,
        ),
        Workload(
            name="sim-paper",
            why=(
                "Simulator at PAPER (512-bit q), 4 subscribers, 2-leaf policy: bignum "
                "cost ratios of the paper's scale, no sockets, no record layer - the "
                "bypass for all of live/. Closed loop, then batches of 4."
            ),
            substrate="sim",
            config={"param_set": "PAPER"},
            subscribers=4,
            matching=2,
            denied=0,
            policy=("org:acme", "role:analyst"),
            payload_bytes=1024,
            varying_attributes=2,
            limit_ms=6000.0,
            seed_capacity_pub_s=2.2,
            latency_share=0.55,
            throughput_share=0.35,
            batch=4,
            subscribe_probes=20,
            # at PAPER the table-building third warm-up publication alone
            # takes ~3 s and a whole set-up ~5.5 s
            setup_repeats=2,
        ),
        Workload(
            name="sim-churn",
            why=(
                "Delegated matching, 2 match workers, fsynced sealed WAL, short TTLs, a "
                "re-subscribe before each publication: fresh tokens defeat precompute "
                "and memo; registry, MatchPool, store.wal work nowhere else."
            ),
            substrate="sim",
            config={
                "delegated_matching": True,
                "match_workers": 2,
                "store_backend": "wal",
                "store_fsync": True,
                "t_g": 1.0,
                "rs_gc_interval_s": 1.0,
            },
            subscribers=16,
            matching=3,
            denied=0,
            policy=("org:acme",),
            payload_bytes=1024,
            varying_attributes=9,
            limit_ms=1000.0,
            seed_capacity_pub_s=7.0,
            latency_share=0.55,
            throughput_share=0.4,
            batch=8,
            churn=True,
            ttl_s=2.0,
            subscribe_probes=0,  # every publication already times a subscribe
        ),
    )
}


@dataclass(frozen=True)
class SubscriberSpec:
    name: str
    attributes: frozenset[str]
    interest: dict[str, str]


@dataclass(frozen=True)
class Publication:
    index: int
    metadata: dict[str, str]
    payload: bytes
    policy: tuple[str, ...]
    ttl_s: float

    @property
    def policy_text(self) -> str:
        return " and ".join(self.policy)


@dataclass
class Inputs:
    """Everything one run feeds the program, derived from (workload, seed)."""

    workload: Workload
    seconds: float
    subscribers: list[SubscriberSpec]
    warmup: list[Publication]
    latency: list[Publication]
    throughput: list[Publication]
    schedule: list[float]  # open loop: intended send offsets in seconds
    churn_order: list[int]  # the rotation in which subscribers are churned
    probes: list[tuple[int, dict[str, str]]]  # (subscriber index, interest)
    store_key: bytes


def payload_index(payload: bytes) -> int | None:
    """The publication index a delivered payload claims, if it has one."""
    if len(payload) < PAYLOAD_INDEX_BYTES:
        return None
    return int.from_bytes(payload[:PAYLOAD_INDEX_BYTES], "big")


def generate(
    workload: Workload, seed: int, seconds: float, smoke: bool = False
) -> Inputs:
    """Derive the run's inputs; the same arguments give the same inputs."""
    rng = random.Random(f"p3s-e2e:{workload.name}:{seed}")
    wanted = rng.choice(VALUES)
    # per non-interest attribute: the value standing non-matching
    # subscribers ask for, and the value the timed probe subscribes ask
    # for; publications carry neither, so those interests never match
    standing = {a: rng.choice(VALUES) for a in ATTRIBUTES[1:]}
    probing = {
        a: rng.choice([v for v in VALUES if v != standing[a]]) for a in ATTRIBUTES[1:]
    }
    free = {
        a: [v for v in VALUES if v not in (standing[a], probing[a])]
        for a in ATTRIBUTES[1:]
    }

    varying = set(rng.sample(ATTRIBUTES[1:], workload.varying_attributes))
    constant = {a: rng.choice(free[a]) for a in ATTRIBUTES[1:] if a not in varying}

    subscribers = []
    for i in range(workload.subscribers):
        if i < workload.matching:
            interest = {INTEREST_ATTRIBUTE: wanted}
            authorised = i < workload.matching - workload.denied
        else:
            attribute = ATTRIBUTES[1 + (i - workload.matching) % (len(ATTRIBUTES) - 1)]
            interest = {attribute: standing[attribute]}
            authorised = True
        attributes = frozenset(workload.policy) if authorised else frozenset({"org:other"})
        subscribers.append(SubscriberSpec(f"s{i:02d}", attributes, interest))

    made_so_far = 0

    def make(count: int, misses: int) -> list[Publication]:
        nonlocal made_so_far
        miss_at = set(rng.sample(range(count), misses))
        made = []
        for position in range(count):
            metadata = {a: rng.choice(free[a]) for a in sorted(varying)}
            metadata.update(constant)
            metadata[INTEREST_ATTRIBUTE] = (
                rng.choice([v for v in VALUES if v != wanted]) if position in miss_at else wanted
            )
            index = made_so_far
            made_so_far += 1
            payload = index.to_bytes(PAYLOAD_INDEX_BYTES, "big") + rng.randbytes(
                workload.payload_bytes - PAYLOAD_INDEX_BYTES
            )
            made.append(Publication(index, metadata, payload, workload.policy, workload.ttl_s))
        return made

    def measured(count: int) -> list[Publication]:
        """A measured phase: one publication in MISS_EVERY (at least one)
        matches nobody, at seeded positions — so the number of deliveries,
        and the tail percentile it supports, depends on the count alone."""
        return make(count, max(1, count // MISS_EVERY))

    if smoke:
        n_warmup, n_latency, n_throughput, n_probes = 1, 2, 2, min(2, workload.subscribe_probes)
    else:
        latency_rate = workload.open_loop_pub_s or workload.seed_capacity_pub_s
        n_warmup = workload.warmup_pubs
        n_latency = max(4, round(latency_rate * workload.latency_share * seconds))
        n_throughput = max(
            4, round(workload.seed_capacity_pub_s * workload.throughput_share * seconds)
        )
        n_probes = workload.subscribe_probes
    warmup = make(n_warmup, 0)
    latency = measured(n_latency)
    throughput = measured(n_throughput)

    # Open loop: one send at a seeded uniform instant inside the middle
    # half of each slot of 1/rate seconds, so gaps range from 0.5 to 1.5
    # slots.  At the seed a publication is served in under half a slot
    # and sends do not queue behind each other; they start to once
    # latency grows past that.  With ~15 sends per run, wider jitter (let
    # alone Poisson arrivals, which front-load some seeds) makes the
    # number that queue a lottery and no latency bound holds across seeds.
    schedule = []
    if workload.open_loop_pub_s:
        slot = 1.0 / workload.open_loop_pub_s
        schedule = [(k + 0.25 + 0.5 * rng.random()) * slot for k in range(n_latency)]

    churn_order = list(range(workload.subscribers))
    rng.shuffle(churn_order)

    probes = []
    for i in range(n_probes):
        attribute = ATTRIBUTES[1 + i % (len(ATTRIBUTES) - 1)]
        probes.append((i % workload.subscribers, {attribute: probing[attribute]}))

    return Inputs(
        workload=workload,
        seconds=seconds,
        subscribers=subscribers,
        warmup=warmup,
        latency=latency,
        throughput=throughput,
        schedule=schedule,
        churn_order=churn_order,
        probes=probes,
        store_key=rng.randbytes(32),
    )
