"""Broker rules the live DS now shares with the simulator broker.

The live DS used to carry its own ``_on_subscribe`` with no connection
check: a SUBSCRIBE from a client that never sent CONNECT was accepted
and written to the durable subscription store, while the simulator
broker rejected it (``tests/mq/test_broker.py::
test_subscribe_before_connect_rejected``).  With one ``_subscribe`` rule
both reject it — checked here over a real socket.
"""

from __future__ import annotations

import pytest

from repro.core.messages import METADATA_TOPIC
from repro.live.deployment import LiveDeployment
from repro.mq import messages as frames
from repro.mq.messages import JmsFrame
from repro.obs import Observability
from repro.pbe.schema import Interest
from repro.store.codec import NS_SUBS, decode_sub_key

from .conftest import run_async, scrape, small_config

pytestmark = pytest.mark.live


def test_subscribe_before_connect_rejected_and_ds_keeps_serving():
    obs = Observability()

    async def scenario():
        deployment = LiveDeployment(small_config(obs=obs))
        await deployment.start()
        rogue = deployment._client_endpoint("rogue")
        try:
            ds = deployment.ds
            topic = METADATA_TOPIC
            # forge a SUBSCRIBE without CONNECT; the operator's probe is
            # answered after it was refused (and counted), and proves the
            # rejection did not take the DS down with it
            await rogue.cast("ds", frames.SUBSCRIBE, JmsFrame(topic=topic))
            assert (await scrape(deployment)).health("ds")["ready"]
            assert obs.metrics.counter_total("op.rpc.frame_rejected") == 1
            assert "rogue" not in ds.subscriptions[topic]
            stored = [decode_sub_key(key) for key, _ in ds.store.items(NS_SUBS)]
            assert (topic, "rogue") not in stored

            # a legitimate client is served as if nothing happened
            alice = await deployment.add_subscriber("alice", {"org"})
            await alice.subscribe(Interest({"topic": "a"}))
            publisher = await deployment.add_publisher("pub")
            await publisher.publish(
                {"topic": "a", "prio": "lo"}, b"still serving", policy="org"
            )
            await alice.wait_for_deliveries(1)
            assert [d.payload for d in alice.stats.deliveries] == [b"still serving"]
            assert ds.subscriptions[topic] == ["alice"]
            assert [decode_sub_key(k) for k, _ in ds.store.items(NS_SUBS)] == [
                (topic, "alice")
            ]
        finally:
            await rogue.close()
            await deployment.close()

    try:
        run_async(scenario())
    finally:
        obs.uninstall()
