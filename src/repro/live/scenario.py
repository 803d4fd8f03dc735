"""Substrate-agnostic P3S scenarios, runnable on the simulator or live.

A :class:`Scenario` describes *what happens* — who subscribes to what,
who publishes what under which policy — with no reference to a substrate.
There is one player per substrate: :func:`play_on_simulator` runs a
scenario on a :class:`repro.core.system.P3SSystem`,
:func:`play_on_live` on a :class:`repro.live.deployment.LiveDeployment`
(the chaos runner, the CLI's telemetry demos and the multi-process
``live run`` all go through them).  :func:`run_on_simulator` and
:func:`run_on_live` stand the deployment up as well.  Both return the
same shape — per-subscriber sorted delivered plaintexts — so a test can
assert the two substrates deliver identical content (GUIDs and
ciphertexts are randomized per run; the *plaintext delivery sets* are
the substrate-independent observable).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from ..core.config import P3SConfig
from ..core.system import P3SSystem
from ..pbe.schema import Interest
from .deployment import LiveDeployment

__all__ = [
    "SubscriberSpec",
    "PublicationSpec",
    "Scenario",
    "default_scenario",
    "demo_metadata",
    "delivered",
    "play_on_simulator",
    "play_on_live",
    "run_on_simulator",
    "run_on_live",
]

DELIVERY_TIMEOUT_S = 60.0  # how long a subscriber's expected deliveries may take


@dataclass(frozen=True)
class SubscriberSpec:
    """One subscriber: CP-ABE attributes + the interests it subscribes."""

    name: str
    attributes: frozenset[str]
    interests: tuple[Interest, ...]


@dataclass(frozen=True)
class PublicationSpec:
    """One publication: metadata, plaintext payload, CP-ABE policy."""

    metadata: tuple[tuple[str, str], ...]
    payload: bytes
    policy: str
    ttl_s: float = 3600.0

    @property
    def metadata_dict(self) -> dict[str, str]:
        return dict(self.metadata)


@dataclass(frozen=True)
class Scenario:
    """A full publish-subscribe episode, independent of substrate."""

    subscribers: tuple[SubscriberSpec, ...]
    publications: tuple[PublicationSpec, ...]
    publisher_name: str = "pub"


def demo_metadata(**overrides: str) -> tuple[tuple[str, str], ...]:
    """Default-schema metadata: every attribute "v00" but ``overrides``."""
    base = {f"attr{i:02d}": "v00" for i in range(10)}
    base.update(overrides)
    return tuple(sorted(base.items()))


def default_scenario() -> Scenario:
    """The demo episode: ARA registration, subscription, publication,
    matching, retrieval, delivery — with a match, a multi-attribute
    match, a non-match, and an access-denied case all exercised."""
    return Scenario(
        subscribers=(
            SubscriberSpec(
                "alice", frozenset({"org:acme"}), (Interest({"attr00": "v01"}),)
            ),
            SubscriberSpec(
                "bobby",
                frozenset({"org:acme", "role:analyst"}),
                (Interest({"attr01": "v02", "attr02": "v03"}),),
            ),
            SubscriberSpec(
                "carol", frozenset({"org:other"}), (Interest({"attr00": "v01"}),)
            ),
        ),
        publications=(
            PublicationSpec(
                demo_metadata(attr00="v01"), b"breaking: acme merger", "org:acme"
            ),
            PublicationSpec(
                demo_metadata(attr01="v02", attr02="v03"),
                b"quarterly analyst brief",
                "org:acme and role:analyst",
            ),
            PublicationSpec(
                demo_metadata(attr00="v09"), b"nobody subscribed to this", "org:acme"
            ),
        ),
    )


DeliveryMap = dict[str, tuple[bytes, ...]]


def delivered(subscribers) -> DeliveryMap:
    """Per-subscriber sorted delivered plaintexts."""
    return {
        name: tuple(sorted(d.payload for d in subscriber.stats.deliveries))
        for name, subscriber in sorted(subscribers.items())
    }


def play_on_simulator(system: P3SSystem, scenario: Scenario, tune=None, between=None):
    """Subscribe everyone, run to quiescence, publish everything, run
    to quiescence; returns the publisher.

    ``tune(subscriber)`` sees each subscriber before it subscribes;
    ``between()`` runs between the two phases — the chaos runner's
    seams for retry hardening and for arming its fault injector.
    """
    for spec in scenario.subscribers:
        subscriber = system.add_subscriber(spec.name, attributes=set(spec.attributes))
        if tune is not None:
            tune(subscriber)
        for interest in spec.interests:
            system.subscribe(subscriber, interest)
    system.run()
    if between is not None:
        between()
    publisher = system.add_publisher(scenario.publisher_name)
    for publication in scenario.publications:
        publisher.publish(
            publication.metadata_dict,
            publication.payload,
            policy=publication.policy,
            ttl_s=publication.ttl_s,
        )
    system.run()
    return publisher


async def play_on_live(
    deployment: LiveDeployment,
    scenario: Scenario,
    expected: DeliveryMap | None = None,
    settle_s: float = 0.2,
) -> DeliveryMap:
    """Subscribe everyone, publish everything, wait, and report what
    each subscriber delivered.

    ``expected`` (e.g. a prior :func:`run_on_simulator` result) tells the
    player how many deliveries to await per subscriber, for up to
    :data:`DELIVERY_TIMEOUT_S` each; without it only
    ``settle_s`` of quiescence after the last publication is waited —
    fine for demos, racy for assertions.
    """
    for spec in scenario.subscribers:
        subscriber = await deployment.add_subscriber(spec.name, set(spec.attributes))
        for interest in spec.interests:
            await subscriber.subscribe(interest)
    publisher = await deployment.add_publisher(scenario.publisher_name)
    for publication in scenario.publications:
        await publisher.publish(
            publication.metadata_dict,
            publication.payload,
            policy=publication.policy,
            ttl_s=publication.ttl_s,
        )
    if expected is not None:
        await asyncio.gather(
            *(
                deployment.subscribers[name].wait_for_deliveries(
                    len(payloads), DELIVERY_TIMEOUT_S
                )
                for name, payloads in expected.items()
                if payloads
            )
        )
    # let non-matches, acks, counters, span ends and the RS store settle
    await asyncio.sleep(settle_s)
    return delivered(deployment.subscribers)


def run_on_simulator(scenario: Scenario, config: P3SConfig | None = None) -> DeliveryMap:
    """Execute ``scenario`` in the discrete-event simulator."""
    system = P3SSystem(config or P3SConfig())
    try:
        play_on_simulator(system, scenario)
        return delivered(system.subscribers)
    finally:
        system.close()


async def run_on_live(
    scenario: Scenario,
    config: P3SConfig | None = None,
    expected: DeliveryMap | None = None,
    settle_s: float = 0.2,
) -> DeliveryMap:
    """Execute ``scenario`` over real TCP sockets on localhost."""
    deployment = LiveDeployment(config)
    await deployment.start()
    try:
        return await play_on_live(deployment, scenario, expected, settle_s)
    finally:
        await deployment.close()
