"""A seeded simulator run replays byte for byte.

Every secret a deployment draws comes through :mod:`repro.crypto.randomness`,
so one seed fixes a whole run: the GUIDs, the certificate pseudonyms, the
HVE and CP-ABE ciphertexts, and with their scalars' digits the comb
entries each encryption fills and the ``op.*`` counts.  The scenario has
the anonymizer on, two subscribers, a re-subscription, and publications
that match one subscriber, the other, or no one.
"""

from __future__ import annotations

from repro.core import P3SConfig, P3SSystem
from repro.core import publisher as publisher_module
from repro.crypto import precompute, randomness
from repro.crypto.curve import _MISSING
from repro.obs import Observability
from repro.pbe import AttributeSpec, Interest, MetadataSchema

SCHEMA = MetadataSchema([AttributeSpec("topic", ("a", "b", "c", "d"))])
INTERESTS = {"s0": Interest({"topic": "a"}), "s1": Interest({"topic": "b"})}
TOPICS = ("a", "b", "c", "a", "b", "d")  # "c" and "d" match no one
SEALERS = {
    name: getattr(publisher_module, name)
    for name in ("encrypt_metadata_envelope", "encrypt_payload_ciphertext")
}


def run_scenario(monkeypatch) -> dict:
    """One run's fingerprint: what it drew, sealed and counted."""
    sealed: list[bytes] = []
    for name, real in SEALERS.items():

        def spy(*args, _real=real):
            sealed.append(_real(*args))
            return sealed[-1]

        monkeypatch.setattr(publisher_module, name, spy)
    precompute.clear_caches()  # the shared tables start cold every run
    obs = Observability()
    with obs.installed():
        system = P3SSystem(P3SConfig(schema=SCHEMA))
        subscribers = {name: system.add_subscriber(name, {"org"}) for name in INTERESTS}
        for name, subscriber in subscribers.items():
            system.subscribe(subscriber, INTERESTS[name])
        system.run()
        subscribers["s0"].unsubscribe(INTERESTS["s0"])
        system.subscribe(subscribers["s0"], INTERESTS["s0"])
        system.run()
        publisher = system.add_publisher("pub")
        system.run()
        for topic in TOPICS:
            publisher.publish({"topic": topic}, b"item-" + topic.encode(), policy="org")
        system.run()
    public = publisher.credentials.hve_public_key
    delivered = {
        name: [delivery.payload for delivery in s.stats.deliveries]
        for name, s in subscribers.items()
    }
    assert delivered == {"s0": [b"item-a"] * 2, "s1": [b"item-b"] * 2}
    return {
        "guids": [record.guid for record in publisher.published],
        "pseudonyms": [s.credentials.certificate.subject for s in subscribers.values()],
        "sealed": sealed,
        "ops": {
            name: obs.metrics.counter_total(name)
            for name in obs.metrics.counter_names()
            if name.startswith("op.")
        },
        "comb_entries": sum(
            entry is not _MISSING
            for table in public.tables.tables.values()
            for row in table.rows
            for entry in row
        ),
    }


def test_one_seed_replays_the_run_byte_for_byte(monkeypatch):
    with randomness.seeded(2012):
        first = run_scenario(monkeypatch)
    with randomness.seeded(2012):
        second = run_scenario(monkeypatch)
    assert len(first["sealed"]) == 2 * len(TOPICS)
    assert first["ops"]["op.g1_exp.fb_build"] > 0 and first["comb_entries"] > 0
    assert first == second


def test_another_seed_or_none_draws_otherwise(monkeypatch):
    with randomness.seeded(2012):
        seeded = run_scenario(monkeypatch)
    with randomness.seeded(2013):
        other = run_scenario(monkeypatch)
    unseeded = [run_scenario(monkeypatch) for _ in range(2)]
    for one, two in ((seeded, other), tuple(unseeded)):
        for part in ("guids", "pseudonyms", "sealed"):
            assert not set(one[part]) & set(two[part]), part
