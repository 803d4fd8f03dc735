"""Re-subscribing to a held interest replaces its token, in both matching modes.

A subscriber holds one token per interest.  Subscribing again to an
interest it already holds swaps the new token in for the old one, and
under delegated matching swaps the DS registration too; one unsubscribe
then drops the interest everywhere.
"""

import pytest

from repro.core import P3SConfig, P3SSystem
from repro.obs import Observability
from repro.pbe import AttributeSpec, Interest, MetadataSchema

SCHEMA = MetadataSchema([AttributeSpec("topic", ("a", "b", "c", "d"))])
INTEREST = Interest({"topic": "a"})


@pytest.fixture(params=[False, True], ids=["local", "delegated"])
def deployment(request):
    obs = Observability()
    config = P3SConfig(
        schema=SCHEMA, obs=obs, delegated_matching=request.param, match_workers=1
    )
    system = P3SSystem(config)
    alice = system.add_subscriber("alice", {"org"})
    for _ in range(3):
        system.subscribe(alice, INTEREST)
    system.run()
    publisher = system.add_publisher("pub")
    system.run()
    try:
        yield system, alice, publisher
    finally:
        obs.uninstall()
        for ds in system.ds_shards.values():
            ds.close_match_pool()


def registrations(system):
    return [list(ds.registered_tokens) for ds in system.ds_shards.values()]


def test_three_subscribes_hold_one_token(deployment):
    system, alice, publisher = deployment
    assert len(alice.tokens) == 1
    if system.config.delegated_matching:
        assert [len(entries) for entries in registrations(system)] == [1] * len(system.ds_shards)


def test_a_non_matching_publication_is_tested_against_one_token(deployment):
    system, alice, publisher = deployment
    metrics = system.config.obs.metrics
    before = metrics.counter_total("op.hve.match")
    publisher.publish({"topic": "b"}, b"miss", policy="org")
    system.run()
    assert metrics.counter_total("op.hve.match") - before == 1


def test_one_unsubscribe_drops_the_interest_everywhere(deployment):
    system, alice, publisher = deployment
    assert alice.unsubscribe(INTEREST)
    system.run()
    assert alice.tokens == []
    assert registrations(system) == [[] for _ in system.ds_shards]
    record = publisher.publish({"topic": "a"}, b"after", policy="org")
    system.run()
    assert system.deliveries_for(record) == []
