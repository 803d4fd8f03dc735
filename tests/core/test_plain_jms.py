"""§5: "the top-level JMS interface is retained".  A frame that carries no
``p3s-kind`` header is plain JMS traffic to a P3S DS: it is fanned out on
its own topic to that topic's subscribers, unopened, as the broker P3S
extends would deliver it."""

from repro.core import P3SConfig, P3SSystem
from repro.mq.client import JmsConnection


def jms_client(system: P3SSystem, name: str) -> JmsConnection:
    connection = JmsConnection(system.network.add_host(name), system.plan.ds_names)
    connection.start()
    return connection


def test_a_frame_without_a_p3s_kind_is_delivered_as_plain_jms():
    system = P3SSystem(P3SConfig())
    received = []
    listener = jms_client(system, "jms-listener").create_session().create_consumer("news")
    listener.set_message_listener(received.append)
    system.run()
    producer = jms_client(system, "jms-producer").create_session().create_producer("news")
    system.run()
    producer.send(b"plain body", 10, headers={"x-app": "1"})
    system.run()
    assert [(frame.topic, frame.body, frame.headers.get("x-app")) for frame in received] == [
        ("news", b"plain body", "1")
    ]
    assert "p3s-kind" not in received[0].headers
