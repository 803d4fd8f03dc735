"""Mini-JMS broker and client API tests."""

import pytest

from repro.errors import BrokerError
from repro.mq.broker import Broker
from repro.mq.client import JmsConnection
from repro.mq.messages import FRAME_HEADER_BYTES
from repro.net.network import Network
from repro.net.simulator import Simulator


class TopicBroker(Broker):
    """A plain JMS broker: every PUBLISH goes to all its topic's subscribers."""

    def on_publish(self, src, frame):
        yield from self.fan_out(frame.topic, frame)


def make_system(num_clients=2):
    sim = Simulator()
    net = Network(sim)
    broker = TopicBroker(net.add_host("broker"))
    broker.start()
    connections = []
    for i in range(num_clients):
        connection = JmsConnection(net.add_host(f"client-{i}"), "broker")
        connection.start()
        connections.append(connection)
    return sim, net, broker, connections


class TestPubSub:
    def test_single_subscriber_receives(self):
        sim, _, broker, (pub, sub) = make_system()
        received = []
        consumer = sub.create_session().create_consumer("news")
        consumer.set_message_listener(lambda frame: received.append(frame.body))
        sim.run()  # let CONNECT/SUBSCRIBE land
        pub.create_session().create_producer("news").send(b"hello", 5)
        sim.run()
        assert received == [b"hello"]

    def test_fan_out_to_all_subscribers(self):
        sim, _, broker, connections = make_system(num_clients=4)
        publisher, *subscribers = connections
        received = {connection.client_name: [] for connection in subscribers}
        for connection in subscribers:
            consumer = connection.create_session().create_consumer("updates")
            consumer.set_message_listener(
                lambda frame, name=connection.client_name: received[name].append(frame.body)
            )
        sim.run()
        publisher.create_session().create_producer("updates").send(b"item", 4)
        sim.run()
        assert all(bodies == [b"item"] for bodies in received.values())

    def test_topic_isolation(self):
        sim, _, broker, (pub, sub) = make_system()
        news, sports = [], []
        session = sub.create_session()
        session.create_consumer("news").set_message_listener(lambda f: news.append(f.body))
        session.create_consumer("sports").set_message_listener(lambda f: sports.append(f.body))
        sim.run()
        pub.create_session().create_producer("news").send(b"n1", 2)
        sim.run()
        assert news == [b"n1"]
        assert sports == []

    def test_publisher_does_not_receive_own_items(self):
        sim, _, broker, (pub, sub) = make_system()
        pub_received = []
        # publisher subscribes to nothing
        sub.create_session().create_consumer("t").set_message_listener(lambda f: None)
        sim.run()
        pub.create_session().create_producer("t").send(b"x", 1)
        sim.run()
        assert pub_received == []

    def test_no_subscribers_drops_silently(self):
        sim, _, broker, (pub, _) = make_system()
        sim.run()
        pub.create_session().create_producer("void").send(b"x", 1)
        sim.run()
        assert broker.published_count == 1
        assert broker.delivered_count == 0


class TestBrokerAccounting:
    def test_acks_counted(self):
        sim, _, broker, (pub, sub) = make_system()
        sub.create_session().create_consumer("t").set_message_listener(lambda f: None)
        sim.run()
        pub.create_session().create_producer("t").send(b"x", 1)
        sim.run()
        assert broker.acked_count == 1

    def test_message_ids_unique_and_increasing(self):
        sim, _, broker, (pub, sub) = make_system()
        ids = []
        sub.create_session().create_consumer("t").set_message_listener(
            lambda frame: ids.append(frame.message_id)
        )
        sim.run()
        producer = pub.create_session().create_producer("t")
        producer.send(b"a", 1)
        producer.send(b"b", 1)
        sim.run()
        assert ids == sorted(ids)
        assert len(set(ids)) == 2

    def test_subscribe_before_connect_rejected(self):
        """The refused frame is dropped and counted; the broker, and the
        simulated deployment around it, keep running."""
        from repro.mq import messages as frames
        from repro.mq.messages import JmsFrame
        from repro.net.channel import SecureChannelLayer
        from repro.obs import Observability

        sim, net, broker, (pub, sub) = make_system()
        received = []
        sub.create_session().create_consumer("t").set_message_listener(
            lambda frame: received.append(frame.body)
        )
        with Observability().installed() as obs:
            # forge a SUBSCRIBE without CONNECT
            rogue = SecureChannelLayer(net.add_host("rogue"))
            rogue.send("broker", frames.SUBSCRIBE, JmsFrame(topic="t"), 64)
            sim.run()
            assert obs.metrics.counter_total("op.rpc.frame_rejected") == 1
        assert "rogue" not in broker.subscriptions["t"]
        pub.create_session().create_producer("t").send(b"still serving", 13)
        sim.run()
        assert received == [b"still serving"]

    def test_frame_wire_size(self):
        from repro.mq.messages import JmsFrame

        assert JmsFrame(body_size=100).wire_size == 100 + FRAME_HEADER_BYTES


class TestClientApi:
    def test_session_requires_started_connection(self):
        sim = Simulator()
        net = Network(sim)
        TopicBroker(net.add_host("broker")).start()
        connection = JmsConnection(net.add_host("c"), "broker")
        with pytest.raises(BrokerError):
            connection.create_session()

    def test_listener_set_once(self):
        sim, _, broker, (_, sub) = make_system()
        consumer = sub.create_session().create_consumer("t")
        consumer.set_message_listener(lambda f: None)
        with pytest.raises(BrokerError):
            consumer.set_message_listener(lambda f: None)
