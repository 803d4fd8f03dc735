"""Ground truth for chaos runs: seeded workloads and plaintext oracles.

The invariant checker needs to know what the system *should* have
delivered, computed without any of the machinery under test: the match
oracle evaluates each subscriber's plaintext interests against each
publication's plaintext metadata (``Interest.matches``) and the CP-ABE
policy against the subscriber's attribute set
(``parse_policy(...).satisfied_by``) — the same semantics HVE matching
and CP-ABE decryption implement cryptographically.  Any divergence
between the oracle set and the delivered set is, by construction, a bug
in the encrypted pipeline or the transport, never in the oracle.

Workloads reuse :class:`repro.live.scenario.Scenario`, the
substrate-free episode description, so a chaos workload can run on the
simulator or over TCP unchanged.  Generation draws from
``random.Random(seed)`` only.
"""

from __future__ import annotations

import random

from ..abe.policy import parse_policy
from ..live.scenario import PublicationSpec, Scenario, SubscriberSpec
from ..pbe.schema import AttributeSpec, Interest, MetadataSchema

__all__ = ["chaos_schema", "generate_scenario", "expected_deliveries"]

_ATTRIBUTE_POOL = ("org:acme", "role:analyst")
_POLICIES = (
    "org:acme",
    "role:analyst",
    "org:acme or role:analyst",
    "org:acme and role:analyst",
)


def chaos_schema() -> MetadataSchema:
    """A deliberately small metadata space (2 attributes: 2 HVE positions,
    3 under the bit encoding).

    Chaos runs execute the real HVE/CP-ABE pipeline per publication ×
    subscriber; a compact schema keeps a multi-fault run fast without
    changing any protocol path.
    """
    return MetadataSchema(
        [
            AttributeSpec("topic", ("a", "b", "c", "d")),
            AttributeSpec("prio", ("lo", "hi")),
        ]
    )


def generate_scenario(
    seed: int,
    n_subscribers: int = 3,
    n_publications: int = 4,
) -> Scenario:
    """A seeded pub/sub episode over :func:`chaos_schema`.

    Subscriber names are ``sub00..subNN`` (the schedule generator's
    ``sub*`` pattern relies on the prefix); payloads are unique per
    publication so delivery multisets compare exactly.
    """
    schema = chaos_schema()
    rng = random.Random(seed)
    topics = schema.attributes[0].values
    prios = schema.attributes[1].values
    subscribers = []
    for i in range(n_subscribers):
        attributes = frozenset(rng.sample(_ATTRIBUTE_POOL, rng.randint(1, 2)))
        constraints: dict[str, str] = {"topic": rng.choice(topics)}
        if rng.random() < 0.4:
            constraints["prio"] = rng.choice(prios)
        subscribers.append(
            SubscriberSpec(f"sub{i:02d}", attributes, (Interest(constraints),))
        )
    publications = []
    for j in range(n_publications):
        metadata = (("prio", rng.choice(prios)), ("topic", rng.choice(topics)))
        publications.append(
            PublicationSpec(
                metadata=metadata,
                payload=f"payload-{j:02d}".encode(),
                policy=rng.choice(_POLICIES),
            )
        )
    return Scenario(subscribers=tuple(subscribers), publications=tuple(publications))


def expected_deliveries(scenario: Scenario) -> dict[str, tuple[bytes, ...]]:
    """The oracle delivery map: plaintext interest match ∧ policy satisfied."""
    expected: dict[str, tuple[bytes, ...]] = {}
    for sub in scenario.subscribers:
        payloads = [
            pub.payload
            for pub in scenario.publications
            if any(interest.matches(pub.metadata_dict) for interest in sub.interests)
            and parse_policy(pub.policy).satisfied_by(set(sub.attributes))
        ]
        expected[sub.name] = tuple(sorted(payloads))
    return expected
