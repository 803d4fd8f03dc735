"""A subscriber whose certificate lapses (ROADMAP item 21).

The certificate is the only one of a subscriber's three credentials that
expires, and only the PBE-TS reads it: after its ``not_after`` the
subscriber gets no new token, but the token and the CP-ABE key it holds
keep matching and decrypting, since nothing after the PBE-TS reads a
certificate.
"""

from __future__ import annotations

import pytest

from repro.core import P3SConfig, P3SSystem
from repro.core.subscriber import Subscriber
from repro.crypto.signing import VerifyKey
from repro.errors import TokenRequestError
from repro.mq.client import JmsConnection
from repro.pbe import AttributeSpec, Interest, MetadataSchema

SCHEMA = MetadataSchema([AttributeSpec("topic", ("a", "b", "c", "d"))])
NOT_AFTER = 5.0


def lapsing_subscriber(system: P3SSystem) -> Subscriber:
    """A subscriber to ``topic = a`` whose certificate lapses at
    ``NOT_AFTER``, holding the token it got before then."""
    credentials = system.ara.register_subscriber("late", {"org"}, cert_not_after=NOT_AFTER)
    connection = JmsConnection(system.network.add_host("late"), system.plan.ds_names)
    subscriber = Subscriber(credentials, connection, system.group, system.config.timings)
    subscriber.start()
    subscriber.subscribe(Interest({"topic": "a"}))
    system.run()
    assert len(subscriber.tokens) == 1 and system.now < NOT_AFTER
    return subscriber


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP 21: only the PBE-TS reads a certificate, so a subscriber whose "
        "certificate lapsed still matches with its token and decrypts with its CP-ABE key"
    ),
)
def test_a_lapsed_subscriber_neither_matches_nor_decrypts():
    system = P3SSystem(P3SConfig(schema=SCHEMA))
    subscriber = lapsing_subscriber(system)
    publisher = system.add_publisher("pub")
    system.run(until=NOT_AFTER + 1)
    publisher.publish({"topic": "a"}, b"after expiry", policy="org")
    system.run()
    assert subscriber.stats.deliveries == []


def test_the_pbe_ts_refuses_a_lapsed_subscriber_with_its_certificate_remembered(monkeypatch):
    system = P3SSystem(P3SConfig(schema=SCHEMA))
    subscriber = lapsing_subscriber(system)
    verify, checked = VerifyKey.verify, []
    monkeypatch.setattr(
        VerifyKey, "verify", lambda *args: checked.append(1) or verify(*args)
    )
    system.run(until=NOT_AFTER + 1)
    subscriber.subscribe(Interest({"topic": "b"}))
    with pytest.raises(TokenRequestError, match="expired"):
        system.run()
    assert checked == []  # refused on expiry alone: the signature was remembered
    assert system.pbe_ts.issuer.tokens_issued == 1 and len(subscriber.tokens) == 1
