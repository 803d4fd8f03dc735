"""§8 future-work extension: embedded per-subscriber token generation."""

from repro.core import P3SConfig, P3SSystem, Recorder
from repro.pbe import AttributeSpec, Interest, MetadataSchema


def make_system():
    schema = MetadataSchema([AttributeSpec("topic", ("a", "b", "c", "d"))])
    return P3SSystem(P3SConfig(schema=schema))


class TestEmbeddedTokenSource:
    def test_predicate_never_reaches_pbe_ts(self):
        system = make_system()
        alice = system.add_subscriber("alice", {"org:acme"}, embedded_token_source=True)
        system.subscribe(alice, Interest({"topic": "a"}))
        with Recorder() as recorder:
            system.run()
        assert len(alice.tokens) == 1
        # the centralized PBE-TS never saw the predicate or any request
        assert recorder.seen("request") == []
        assert recorder.seen("source", system.pbe_ts.name) == []
        assert alice.local_token_source.tokens_minted == 1

    def test_locally_minted_token_matches(self):
        system = make_system()
        alice = system.add_subscriber("alice", {"org:acme"}, embedded_token_source=True)
        system.subscribe(alice, Interest({"topic": "b"}))
        system.run()
        publisher = system.add_publisher("bob")
        system.run()
        record = publisher.publish({"topic": "b"}, b"payload", policy="org:acme")
        system.run()
        deliveries = system.deliveries_for(record)
        assert len(deliveries) == 1
        assert deliveries[0].payload == b"payload"

    def test_mixed_deployment(self):
        """Embedded and centralized subscribers coexist."""
        system = make_system()
        embedded = system.add_subscriber("e", {"org:acme"}, embedded_token_source=True)
        central = system.add_subscriber("c", {"org:acme"})
        system.subscribe(embedded, Interest({"topic": "a"}))
        system.subscribe(central, Interest({"topic": "a"}))
        with Recorder() as recorder:
            system.run()
        # only the centralized subscriber's predicate reached the PBE-TS
        assert len(recorder.seen("request")) == 1
        publisher = system.add_publisher("bob")
        system.run()
        record = publisher.publish({"topic": "a"}, b"x", policy="org:acme")
        system.run()
        assert len(system.deliveries_for(record)) == 2
