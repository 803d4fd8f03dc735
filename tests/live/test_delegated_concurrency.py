"""Delegated matching on a live DS with two match workers, under load.

The live DS matches each publication in ``asyncio.to_thread`` while token
registrations keep arriving on the event loop, so several matches and
several reconciliations of the :class:`repro.par.MatchPool` partitions
overlap in time.  With publications in flight together and subscribers
churning the registry (one of them re-registering a stable subscriber's
token bytes), every stable subscriber must deliver exactly what the
interest oracle says: the pool serialises its pipe exchanges.  Its few
tokens are far below ``SPLIT_AT``, so the test lowers the constant: the
pool matches on its two workers from the first publication.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.par import pool as pool_mod
from repro.pbe.schema import Interest

from .conftest import run_async, small_config

pytestmark = pytest.mark.live

STABLE = {
    "alice": Interest({"topic": "a"}),
    "dave": Interest({"topic": "a"}),  # the same one-position token bytes as alice's
    "bobby": Interest({"topic": "b", "prio": "hi"}),
    "erin": Interest({"prio": "lo"}),
}
CHURN = {
    "churn0": Interest({"topic": "a"}),  # registers and withdraws alice's bytes
    "churn1": Interest({"topic": "c", "prio": "hi"}),
}
PUBLICATIONS = [
    ({"topic": topic, "prio": prio}, f"{topic}-{prio}-{i}".encode())
    for i, (topic, prio) in enumerate(
        [("a", "lo"), ("b", "hi"), ("c", "hi"), ("a", "hi"),
         ("d", "lo"), ("b", "lo"), ("a", "lo"), ("c", "lo")]
    )
]


def _oracle() -> dict[str, tuple[bytes, ...]]:
    return {
        name: tuple(sorted(payload for metadata, payload in PUBLICATIONS
                           if interest.matches(metadata)))
        for name, interest in STABLE.items()
    }


def test_concurrent_publications_and_churn_deliver_the_oracle_sets(monkeypatch):
    from repro.live.deployment import LiveDeployment

    monkeypatch.setitem(pool_mod.SPLIT_AT, "TOY", 1)

    async def scenario():
        config = small_config(delegated_matching=True, match_workers=2)
        deployment = LiveDeployment(config)
        await deployment.start()
        try:
            for name, interest in STABLE.items():
                subscriber = await deployment.add_subscriber(name, {"org"})
                await subscriber.subscribe(interest)
            churners = [
                (await deployment.add_subscriber(name, {"org"}), interest)
                for name, interest in CHURN.items()
            ]
            while len(deployment.ds.registered_tokens) < len(STABLE):
                await asyncio.sleep(0.01)
            publisher = await deployment.add_publisher("pub")

            async def churn(subscriber, interest):
                for _ in range(4):
                    await subscriber.subscribe(interest)
                    await asyncio.sleep(0)
                    await subscriber.unsubscribe(interest)

            await asyncio.gather(
                *(publisher.publish(metadata, payload, policy="org")
                  for metadata, payload in PUBLICATIONS),
                *(churn(subscriber, interest) for subscriber, interest in churners),
            )
            expected = _oracle()
            await asyncio.gather(
                *(deployment.subscribers[name].wait_for_deliveries(len(payloads), 60.0)
                  for name, payloads in expected.items())
            )
            await asyncio.sleep(0.3)  # room for a delivery that should not come
            delivered = {
                name: tuple(sorted(d.payload for d in deployment.subscribers[name]
                                   .stats.deliveries))
                for name in STABLE
            }
            assert deployment.ds.match_workers == 2
            assert len(deployment.ds.match_pool.partitions) == 2
            return expected, delivered
        finally:
            await deployment.close()

    expected, delivered = run_async(scenario())
    assert delivered == expected
    assert expected["alice"] == expected["dave"] and len(expected["alice"]) == 3
    assert all(expected.values())
