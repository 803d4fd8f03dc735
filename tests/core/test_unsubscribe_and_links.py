"""Unsubscribe semantics, publisher reconnect."""

from repro.core import P3SConfig, P3SSystem
from repro.pbe import AttributeSpec, Interest, MetadataSchema


def make_system():
    schema = MetadataSchema([AttributeSpec("topic", ("a", "b", "c", "d"))])
    return P3SSystem(P3SConfig(schema=schema))


class TestUnsubscribe:
    def test_unsubscribed_interest_stops_matching(self):
        system = make_system()
        alice = system.add_subscriber("alice", {"org"})
        interest = Interest({"topic": "a"})
        system.subscribe(alice, interest)
        system.run()
        publisher = system.add_publisher("pub")
        system.run()
        record1 = publisher.publish({"topic": "a"}, b"first", policy="org")
        system.run()
        assert len(system.deliveries_for(record1)) == 1
        assert alice.unsubscribe(interest)
        record2 = publisher.publish({"topic": "a"}, b"second", policy="org")
        system.run()
        assert system.deliveries_for(record2) == []

    def test_unsubscribe_unknown_interest(self):
        system = make_system()
        alice = system.add_subscriber("alice", {"org"})
        assert not alice.unsubscribe(Interest({"topic": "a"}))

    def test_unsubscribe_is_selective(self):
        system = make_system()
        alice = system.add_subscriber("alice", {"org"})
        system.subscribe(alice, Interest({"topic": "a"}))
        system.subscribe(alice, Interest({"topic": "b"}))
        system.run()
        alice.unsubscribe(Interest({"topic": "a"}))
        assert len(alice.tokens) == 1
        publisher = system.add_publisher("pub")
        system.run()
        record = publisher.publish({"topic": "b"}, b"still-matches", policy="org")
        system.run()
        assert len(system.deliveries_for(record)) == 1


class TestPublisherReconnect:
    def test_publisher_resumes_after_ds_restart(self):
        system = make_system()
        alice = system.add_subscriber("alice", {"org"})
        system.subscribe(alice, Interest({"topic": "a"}))
        system.run()
        publisher = system.add_publisher("pub")
        system.run()
        system.ds.crash()
        system.ds.restart()
        alice.reconnect()
        publisher.reconnect()
        system.run()
        record = publisher.publish({"topic": "a"}, b"resumed", policy="org")
        system.run()
        assert len(system.deliveries_for(record)) == 1
