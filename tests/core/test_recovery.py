"""Crash/restart robustness — the §6.1 recovery claims, executed."""

from repro.core import P3SConfig, P3SSystem
from repro.pbe import AttributeSpec, Interest, MetadataSchema


def make_system():
    schema = MetadataSchema([AttributeSpec("topic", ("a", "b", "c", "d"))])
    return P3SSystem(P3SConfig(schema=schema))


class TestRSRecovery:
    def test_encrypted_content_survives_restart(self):
        """'The RS stores encrypted content on disk.  A crashed component
        can resume ... without requiring re-encryption of any published
        content.'"""
        system = make_system()
        publisher = system.add_publisher("bob")
        system.run()
        record = publisher.publish({"topic": "a"}, b"durable", policy="org:acme")
        system.run()
        assert system.rs.holds(record.guid)
        system.rs.crash()
        system.rs.restart()
        assert system.rs.holds(record.guid)  # disk store intact
        # a subscriber arriving after the restart can still fetch it
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "a"}))
        system.run()
        record2 = publisher.publish({"topic": "a"}, b"post-restart", policy="org:acme")
        system.run()
        assert [d.payload for d in alice.stats.deliveries] == [b"post-restart"]

    def test_crashed_rs_fails_fetches_then_recovers(self):
        system = make_system()
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "a"}))
        system.run()
        publisher = system.add_publisher("bob")
        system.run()
        # first publication lands normally, then the RS crashes
        record1 = publisher.publish({"topic": "a"}, b"before", policy="org:acme")
        system.run()
        system.rs.crash()
        record2 = publisher.publish({"topic": "a"}, b"lost", policy="org:acme")
        system.run()
        # the store frame was lost while crashed; the fetch failed
        assert alice.stats.failed_fetches == 1
        assert not system.rs.holds(record2.guid)
        system.rs.restart()
        record3 = publisher.publish({"topic": "a"}, b"after", policy="org:acme")
        system.run()
        payloads = [d.payload for d in alice.stats.deliveries]
        assert payloads == [b"before", b"after"]


class TestDSRecovery:
    def test_clients_reregister_after_ds_restart(self):
        """'A restarted DS needs to wait for subscribers and publishers to
        (re)register.'"""
        system = make_system()
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "a"}))
        system.run()
        publisher = system.add_publisher("bob")
        system.run()
        system.ds.crash()
        system.ds.restart()
        assert system.ds.registered_subscriber_count == 0
        # publications before re-registration reach nobody
        record_lost = publisher.publish({"topic": "a"}, b"nobody", policy="org:acme")
        system.run()
        assert system.deliveries_for(record_lost) == []
        # clients re-register (keeping their tokens) and service resumes
        alice.reconnect()
        system.run()
        assert system.ds.registered_subscriber_count == 1
        record = publisher.publish({"topic": "a"}, b"resumed", policy="org:acme")
        system.run()
        assert [d.payload for d in system.deliveries_for(record)] == [b"resumed"]


class TestSubscriberRecovery:
    def test_restart_reobtains_tokens(self):
        """'A restarted subscriber simply needs to (re)register with the DS
        and (re)obtain its PBE tokens from the PBE-TS.'"""
        system = make_system()
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "a"}))
        system.subscribe(alice, Interest({"topic": "b"}))
        system.run()
        assert len(alice.tokens) == 2
        issued_before = system.pbe_ts.issuer.tokens_issued
        alice.restart()
        system.run()
        assert len(alice.tokens) == 2  # re-obtained
        assert system.pbe_ts.issuer.tokens_issued == issued_before + 2
        # and matching still works end to end
        publisher = system.add_publisher("bob")
        system.run()
        record = publisher.publish({"topic": "b"}, b"post-restart", policy="org:acme")
        system.run()
        assert len(system.deliveries_for(record)) == 1
