"""The seeded demo workload behind ``repro prof record`` and the tests.

One small, fast P3S deployment — a 4-value ``topic`` metadata space so
the HVE vectors stay short — runs ``publications`` seeded publications
end to end (publish → DS fan-out → subscriber match → RS retrieve →
decrypt) with observability on and a profile sampler attached.  Topic
choice per publication comes from ``random.Random(seed)``, so the op
sequence — and therefore the deterministic sampler's folded output — is
a pure function of ``(publications, seed, every)``.

:func:`record_demo` owns the full lifecycle: build, attach, run, detach,
snapshot.  It clears the process-global comb cache first so two
in-process recordings replay identically (a warm cache would skip
``g1_exp.fb_build`` ops the first run paid).
"""

from __future__ import annotations

from typing import Any

from .model import Profile
from .sampler import DeterministicSampler, StackSampler

__all__ = ["record_demo", "demo_schema"]

DEFAULT_PUBLICATIONS = 50
TOPICS = ("alpha", "beta", "gamma", "delta")


def demo_schema():
    """The 2-bit-per-attribute metadata space the demo publishes into."""
    from ...pbe import AttributeSpec, MetadataSchema

    return MetadataSchema([AttributeSpec("topic", TOPICS)])


def run_demo_workload(
    publications: int = DEFAULT_PUBLICATIONS,
    seed: int = 0,
    obs: Any | None = None,
) -> dict[str, Any]:
    """Run the seeded demo deployment; returns workload stats.

    Standalone so the overhead test can run the *same* workload with and
    without a sampler attached and compare wall time.
    """
    import random

    from ...core import P3SConfig, P3SSystem
    from ...crypto import precompute
    from ...pbe import Interest

    precompute.clear_caches()
    rng = random.Random(seed)
    config = P3SConfig(schema=demo_schema(), obs=obs)
    system = P3SSystem(config)
    try:
        alice = system.add_subscriber("alice", {"clearance"})
        system.subscribe(alice, Interest({"topic": "alpha"}))
        bob = system.add_subscriber("bob", {"clearance"})
        system.subscribe(bob, Interest({"topic": "beta"}))
        system.run()
        publisher = system.add_publisher("pub")
        system.run()
        delivered = 0
        for index in range(publications):
            topic = rng.choice(TOPICS)
            record = publisher.publish(
                {"topic": topic},
                f"payload-{index}".encode(),
                policy="clearance",
            )
            system.run()
            delivered += len(system.deliveries_for(record))
        return {
            "publications": publications,
            "seed": seed,
            "delivered": delivered,
            "simulated_s": system.now,
        }
    finally:
        system.close()
        if obs is not None:
            obs.uninstall()


def record_demo(
    publications: int = DEFAULT_PUBLICATIONS,
    seed: int = 0,
    mode: str = "det",
    every: int = 8,
    hz: float = 97.0,
) -> tuple[Profile, dict[str, Any]]:
    """Record a profile of the seeded demo; returns (profile, stats).

    ``mode="det"`` attaches the op-count :class:`DeterministicSampler`
    (replayable — the CLI default); ``mode="wall"`` attaches the
    background :class:`StackSampler` at ``hz``.
    """
    from ..observability import Observability

    obs = Observability()
    if mode == "det":
        sampler: Any = DeterministicSampler(every=every, seed=seed, obs=obs)
    elif mode == "wall":
        sampler = StackSampler(hz=hz, obs=obs)
    else:
        raise ValueError(f"unknown profile mode {mode!r} (det or wall)")
    obs.profiler = sampler
    sampler.start()
    try:
        stats = run_demo_workload(publications, seed=seed, obs=obs)
    finally:
        sampler.stop()
    profile = sampler.profile()
    profile.meta["workload"] = f"demo:{publications}p:seed{seed}"
    return profile, stats
