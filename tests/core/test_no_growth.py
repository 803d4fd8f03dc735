"""No party keeps a collection that grows with traffic.

One deployment, no sightings recorder installed, driven in rounds: each
subscriber drops and re-requests its token (a token request through the
anonymizer), the publisher publishes short-lived items the matching
subscribers fetch through the anonymizer, and the RS's garbage collector
ticks past their expiry.  After a warm-up round, every list, dict, set
and deque attribute of the DS, RS, PBE-TS, token issuer and anonymizer
must keep its size from one round to the next: what a party saw is
reported where it is opened (:mod:`repro.core.sightings`), never kept.

The clients are held to the same rule, their ``stats`` included, and do
not meet it yet (:data:`CLIENTS_GROW`).
"""

from __future__ import annotations

import asyncio
from collections import deque

import pytest

from repro.core import P3SConfig, P3SSystem
from repro.pbe import AttributeSpec, Interest, MetadataSchema

SCHEMA = MetadataSchema([AttributeSpec("topic", ("a", "b", "c", "d"))])
INTERESTS = {"s0": Interest({"topic": "a"}), "s1": Interest({"topic": "b"})}
PUBLICATIONS = ("a", "b", "c", "a", "b", "d")  # one round's topics
ROUNDS = 4  # a warm-up round, then three that must not grow anything
TTL_S = 1.0
LIVE_GC_S = 0.1
CLIENTS_GROW = pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP 16 and 6(a): SubscriberStats.deliveries (each payload) and "
        "PublisherProtocol.published keep an entry per publication, and "
        "SubscriberStats.duplicate_suppressed_at one per suppressed duplicate; "
        "benchmarks/e2e/drivers.py reads len(s.stats.deliveries), so the fix is a harness edit"
    ),
)


def container_sizes(parties) -> dict[str, int]:
    """``party.attribute`` → size, for each container attribute of ``parties``."""
    return {
        f"{role}.{attribute}": len(value)
        for role, party in parties.items()
        for attribute, value in vars(party).items()
        if isinstance(value, (list, dict, set, deque))
    }


def parties_of(deployment) -> dict:
    return {
        "ds": deployment.ds,
        "rs": deployment.rs,
        "pbe_ts": deployment.pbe_ts,
        "issuer": deployment.pbe_ts.issuer,
        "anonymizer": deployment.anonymizer,
    }


def clients_of(publisher, subscribers) -> dict:
    return {
        "publisher": publisher,
        **subscribers,
        **{f"{name}.stats": subscriber.stats for name, subscriber in subscribers.items()},
    }


def assert_flat_after_warm_up(sizes: list[dict[str, int]]) -> None:
    grown = {
        name: [round_sizes[name] for round_sizes in sizes]
        for name in sizes[1]
        if len({round_sizes.get(name) for round_sizes in sizes[1:]}) > 1
    }
    assert not grown, f"containers that changed size after the warm-up round: {grown}"


@pytest.fixture(scope="module")
def simulator_rounds():
    """``(server sizes, client sizes)`` a round, and the deliveries made."""
    system = P3SSystem(P3SConfig(schema=SCHEMA, t_g=0.0, rs_gc_interval_s=TTL_S))
    subscribers = {name: system.add_subscriber(name, {"org"}) for name in INTERESTS}
    for name, subscriber in subscribers.items():
        system.subscribe(subscriber, INTERESTS[name])
    system.run()
    publisher = system.add_publisher("pub")
    system.run()
    servers, clients = [], []
    for _ in range(ROUNDS):
        for name, subscriber in subscribers.items():
            subscriber.unsubscribe(INTERESTS[name])
            system.subscribe(subscriber, INTERESTS[name])
        system.run()
        for topic in PUBLICATIONS:
            publisher.publish({"topic": topic}, b"item", policy="org", ttl_s=TTL_S)
        system.run()
        system.run(until=system.now + 3 * TTL_S)  # GC ticks past every expiry
        assert system.rs.item_count == 0
        servers.append(container_sizes(parties_of(system)))
        clients.append(container_sizes(clients_of(publisher, subscribers)))
    delivered = sum(len(subscriber.stats.deliveries) for subscriber in subscribers.values())
    return servers, clients, delivered


def test_no_party_collection_grows_on_the_simulator(simulator_rounds):
    servers, _, delivered = simulator_rounds
    assert delivered == ROUNDS * 4  # two "a" and two "b" items a round were fetched
    assert_flat_after_warm_up(servers)


@CLIENTS_GROW
def test_no_client_collection_grows_on_the_simulator(simulator_rounds):
    assert_flat_after_warm_up(simulator_rounds[1])


@pytest.fixture(scope="module")
def tcp_rounds():
    """``(server sizes, client sizes)`` a round over loopback TCP."""
    from repro.live.deployment import LiveDeployment

    async def scenario():
        deployment = LiveDeployment(P3SConfig(schema=SCHEMA, t_g=0.0, rs_gc_interval_s=LIVE_GC_S))
        await deployment.start()
        try:
            subscribers = {
                name: await deployment.add_subscriber(name, {"org"}) for name in INTERESTS
            }
            for name, subscriber in subscribers.items():
                await subscriber.subscribe(INTERESTS[name])
            publisher = await deployment.add_publisher("pub")
            servers, clients = [], []
            for round_index in range(ROUNDS):
                for name, subscriber in subscribers.items():
                    await subscriber.unsubscribe(INTERESTS[name])
                    await subscriber.subscribe(INTERESTS[name])
                for topic in PUBLICATIONS:
                    await publisher.publish({"topic": topic}, b"item", policy="org", ttl_s=TTL_S)
                for subscriber in subscribers.values():
                    await subscriber.wait_for_deliveries(2 * (round_index + 1))
                for _ in range(100):  # expiry, then the next GC sweep
                    if deployment.rs.item_count == 0:
                        break
                    await asyncio.sleep(LIVE_GC_S)
                assert deployment.rs.item_count == 0
                servers.append(container_sizes(parties_of(deployment)))
                clients.append(container_sizes(clients_of(publisher, subscribers)))
            return servers, clients
        finally:
            await deployment.close()

    return asyncio.run(asyncio.wait_for(scenario(), 120.0))


@pytest.mark.live
def test_no_party_collection_grows_over_tcp(tcp_rounds):
    assert_flat_after_warm_up(tcp_rounds[0])


@pytest.mark.live
@CLIENTS_GROW
def test_no_client_collection_grows_over_tcp(tcp_rounds):
    assert_flat_after_warm_up(tcp_rounds[1])
