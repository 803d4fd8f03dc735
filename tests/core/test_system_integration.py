"""End-to-end integration tests of the full P3S protocol."""

import pytest

from repro.core import P3SConfig, P3SSystem, Recorder
from repro.pbe import ANY, AttributeSpec, Interest, MetadataSchema


def small_schema():
    return MetadataSchema(
        [
            AttributeSpec("topic", ("m&a", "earnings", "litigation", "markets")),
            AttributeSpec("company", ("lehman", "acme", "globex", "initech")),
        ]
    )


def make_system(**overrides):
    config = P3SConfig(schema=small_schema(), **overrides)
    return P3SSystem(config)


METADATA = {"topic": "m&a", "company": "lehman"}


class TestHappyPath:
    def test_matching_subscriber_receives_payload(self):
        system = make_system()
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "m&a"}))
        system.run()
        bob = system.add_publisher("bob")
        system.run()
        record = bob.publish(METADATA, b"deal update", policy="org:acme")
        system.run()
        deliveries = system.deliveries_for(record)
        assert len(deliveries) == 1
        assert deliveries[0].payload == b"deal update"

    def test_non_matching_subscriber_gets_nothing(self):
        system = make_system()
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "earnings"}))
        system.run()
        bob = system.add_publisher("bob")
        system.run()
        record = bob.publish(METADATA, b"deal update", policy="org:acme")
        system.run()
        assert system.deliveries_for(record) == []
        assert alice.stats.metadata_seen == 1  # it DID receive encrypted metadata
        assert alice.stats.non_matches == 1
        assert alice.stats.matches == 0

    def test_wildcard_interest(self):
        system = make_system()
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"company": "lehman", "topic": ANY}))
        system.run()
        bob = system.add_publisher("bob")
        system.run()
        for topic in ("m&a", "earnings"):
            bob.publish({"topic": topic, "company": "lehman"}, b"x", policy="org:acme")
        bob.publish({"topic": "m&a", "company": "acme"}, b"y", policy="org:acme")
        system.run()
        assert alice.stats.matches == 2
        assert alice.stats.non_matches == 1

    def test_fan_out_to_multiple_matchers(self):
        system = make_system()
        subs = [system.add_subscriber(f"s{i}", {"org:acme"}) for i in range(4)]
        for sub in subs[:3]:
            system.subscribe(sub, Interest({"topic": "m&a"}))
        system.subscribe(subs[3], Interest({"topic": "markets"}))
        system.run()
        bob = system.add_publisher("bob")
        system.run()
        record = bob.publish(METADATA, b"payload", policy="org:acme")
        system.run()
        assert len(system.deliveries_for(record)) == 3
        # every subscriber received the encrypted metadata broadcast
        assert all(sub.stats.metadata_seen == 1 for sub in subs)

    def test_multiple_interests_per_subscriber(self):
        system = make_system()
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "earnings"}))
        system.subscribe(alice, Interest({"company": "lehman"}))
        system.run()
        assert len(alice.tokens) == 2
        bob = system.add_publisher("bob")
        system.run()
        record = bob.publish(METADATA, b"p", policy="org:acme")  # matches 2nd token only
        system.run()
        assert len(system.deliveries_for(record)) == 1

    def test_delivery_latency_positive_and_bounded(self):
        system = make_system()
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "m&a"}))
        system.run()
        bob = system.add_publisher("bob")
        system.run()
        record = bob.publish(METADATA, b"payload", policy="org:acme")
        system.run()
        (latency,) = system.delivery_latencies(record)
        # at minimum: PBE enc + 2 network hops + match + retrieval RTT
        assert latency > 0.030 + 2 * 0.045 + 0.038
        assert latency < 2.0


class TestAccessControl:
    def test_cpabe_policy_denies_wrong_attributes(self):
        system = make_system()
        carol = system.add_subscriber("carol", {"org:other"})
        system.subscribe(carol, Interest({"topic": "m&a"}))
        system.run()
        bob = system.add_publisher("bob")
        system.run()
        record = bob.publish(METADATA, b"secret", policy="org:acme")
        system.run()
        assert system.deliveries_for(record) == []
        assert carol.stats.matches == 1  # interest matched...
        assert carol.stats.access_denied == 1  # ...but attributes insufficient

    def test_complex_policy(self):
        system = make_system()
        alice = system.add_subscriber("alice", {"org:acme", "role:analyst"})
        dave = system.add_subscriber("dave", {"org:acme", "role:intern"})
        for sub in (alice, dave):
            system.subscribe(sub, Interest({"topic": "m&a"}))
        system.run()
        bob = system.add_publisher("bob")
        system.run()
        record = bob.publish(
            METADATA, b"senior only", policy="org:acme and role:analyst"
        )
        system.run()
        deliveries = system.deliveries_for(record)
        assert len(deliveries) == 1
        assert alice.stats.deliveries and not dave.stats.deliveries


class TestDeletion:
    def test_expired_item_not_retrievable(self):
        """§4.3: RS deletes items after TTL_item + T_G; late fetch fails."""
        system = make_system(t_g=1.0, rs_gc_interval_s=0.5)
        bob = system.add_publisher("bob")
        system.run()
        record = bob.publish(METADATA, b"ephemeral", policy="org:acme", ttl_s=2.0)
        system.run()
        assert system.rs.holds(record.guid)
        # advance past TTL + T_G: the GC sweep removes it
        system.run(until=system.now + 5.0)
        assert not system.rs.holds(record.guid)
        assert system.rs.item_count == 0
        # a subscriber that matches only now fails to fetch
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "m&a"}))
        system.run()
        record2 = bob.publish(METADATA, b"fresh", policy="org:acme", ttl_s=0.0)
        system.run(until=system.now + 3.0)  # T_G=1 < fetch time? fetch happens fast
        # fresh item with ttl=0 is deleted T_G after arrival; the immediate
        # fetch may or may not win the race — what must hold is that the
        # item is eventually gone
        system.run(until=system.now + 5.0)
        assert not system.rs.holds(record2.guid)

    def test_strict_deletion_causes_failed_fetches(self):
        """T_G = 0 (strict publisher intent) ⇒ slow consumers fail (§4.3)."""
        system = make_system(t_g=0.0, rs_gc_interval_s=0.01)
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "m&a"}))
        system.run()
        bob = system.add_publisher("bob")
        system.run()
        record = bob.publish(METADATA, b"gone", policy="org:acme", ttl_s=0.0)
        system.run()
        assert system.deliveries_for(record) == []
        assert alice.stats.failed_fetches == 1


class TestPrivacyObservables:
    def test_pbe_ts_sees_predicates_but_not_identities(self):
        system = make_system()
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "m&a"}))
        with Recorder() as recorder:
            system.run()
        # the paper's known exposure: plaintext predicates at the PBE-TS...
        assert any("m&a" in i.to_json() for _, _, i in recorder.seen("request"))
        # ...but with the anonymizer the source is never the subscriber
        assert set(recorder.seen("source", system.pbe_ts.name)) == {"anon"}

    def test_without_anonymizer_identity_leaks_to_servers(self):
        system = make_system(use_anonymizer=False)
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "m&a"}))
        with Recorder() as recorder:
            system.run()
        assert "alice" in recorder.seen("source", system.pbe_ts.name)

    def test_rs_sees_request_counts_not_content(self):
        system = make_system()
        subs = [system.add_subscriber(f"s{i}", {"org:acme"}) for i in range(2)]
        for sub in subs:
            system.subscribe(sub, Interest({"topic": "m&a"}))
        system.run()
        bob = system.add_publisher("bob")
        system.run()
        record = bob.publish(METADATA, b"payload", policy="org:acme")
        with Recorder() as recorder:
            system.run()
        assert system.rs.request_count(record.guid) == 2
        assert set(recorder.seen("source", system.rs.name)) == {"anon"}

    def test_ds_sees_sizes_and_rates_only(self):
        system = make_system()
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "m&a"}))
        system.run()
        bob = system.add_publisher("bob")
        system.run()
        bob.publish(METADATA, b"p1", policy="org:acme")
        bob.publish(METADATA, b"p2", policy="org:acme")
        with Recorder() as recorder:
            system.run()
        assert system.ds.publications_by_publisher["bob"] == 2
        kinds = {kind for kind, _ in recorder.seen("frame", system.ds.name)}
        assert kinds == {"p3s.metadata", "p3s.payload"}

    def test_publisher_learns_nothing_about_delivery(self):
        system = make_system()
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "m&a"}))
        system.run()
        bob = system.add_publisher("bob")
        system.run()
        record = bob.publish(METADATA, b"payload", policy="org:acme")
        system.run()
        # the publisher-side record contains no delivery/matching facts
        assert not hasattr(record, "matched")
        assert system.deliveries_for(record)  # it WAS delivered

    def test_eavesdropper_trace_shows_only_tls_frames(self):
        system = make_system()
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "m&a"}))
        system.run()
        assert system.network.trace, "expected wire activity"
        assert all(record.wire_label == "tls" for record in system.network.trace)


class TestFailureHandling:
    def test_lost_metadata_detected_not_delivered(self):
        """A dropped metadata broadcast means no delivery (loss is visible
        to the channel layer as a sequence gap)."""
        system = make_system()
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "m&a"}))
        system.run()
        bob = system.add_publisher("bob")
        system.run()
        system.network.set_fault_injector(
            lambda src, dst, msg, delay: [] if (src, dst) == ("ds", "alice") else [delay]
        )
        record = bob.publish(METADATA, b"payload", policy="org:acme")
        system.run()
        assert system.deliveries_for(record) == []
        system.network.set_fault_injector(None)

    def test_guid_unguessable_fetch_fails(self):
        """A party that never matched cannot fetch by guessing GUIDs."""
        system = make_system()
        bob = system.add_publisher("bob")
        system.run()
        bob.publish(METADATA, b"payload", policy="org:acme")
        system.run()
        from repro.core.rs import decode_retrieval_response, encode_retrieval_request
        from repro.crypto.symmetric import SecretBox
        from repro.errors import RetrievalError

        # forge a retrieval with a random guess
        mallory = system.add_subscriber("mallory", {"org:other"})
        system.run()
        session_key = SecretBox.generate_key()
        request = system.rs.pke.public.encrypt(
            encode_retrieval_request(session_key, b"\x00" * 16)
        )
        responses = []

        def attempt():
            sealed = yield mallory.connection.endpoint.call(
                "rs", "p3s.retrieve", request, len(request)
            )
            responses.append(sealed)

        system.sim.process(attempt())
        system.run()
        with pytest.raises(RetrievalError):
            decode_retrieval_response(session_key, responses[0])

    def test_malformed_token_registration_does_not_silence_the_ds(self):
        """One ``p3s.token-reg`` frame of garbage from a connected client
        used to fail every later delegated fan-out — and ``system.run()``
        with it; the DS now counts it and drops it at the door."""
        from repro.core.messages import KIND_TOKEN_REG
        from repro.store.codec import NS_TOKENS

        system = make_system(delegated_matching=True)
        alice = system.add_subscriber("alice", {"org:acme"})
        mallory = system.add_subscriber("mallory", {"org:acme"})
        mallory.delegate_tokens = False
        system.subscribe(alice, Interest({"topic": "m&a"}))
        system.run()
        registered = list(system.ds.registered_tokens)

        def hostile():
            yield mallory._send_to_ds(b"\x00" * 9, 9, {"p3s-kind": KIND_TOKEN_REG}, "ds")

        mallory.ports.drive(hostile())
        system.run()
        assert list(system.ds.registered_tokens) == registered
        assert len(system.ds.store.items(NS_TOKENS)) == len(registered) == 1

        bob = system.add_publisher("bob")
        record = bob.publish(METADATA, b"deal update", policy="org:acme")
        system.run()
        assert [d.payload for d in alice.stats.deliveries] == [b"deal update"]
        assert len(system.deliveries_for(record)) == 1  # mallory declared no interest
        system.close()

    @pytest.mark.parametrize("delegated", [False, True])
    def test_hostile_metadata_frames_do_not_stop_the_run(self, delegated):
        """A publisher's metadata frame that is no ciphertext of this
        deployment used to raise out of ``system.run()``: from the
        subscriber's match, or under delegated matching from the DS's
        pool.  The party that decodes it now counts it and drops it."""
        from repro.core.messages import KIND_METADATA, EncryptedMetadata
        from repro.obs import Observability
        from repro.pbe.hve import HVE
        from repro.pbe.serialize import serialize_hve_ciphertext

        system = make_system(delegated_matching=delegated)
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "m&a"}))
        mallory = system.add_publisher("mallory")
        system.run()
        hve = HVE(system.group)
        one_position = serialize_hve_ciphertext(
            system.group, hve.encrypt(hve.setup(1)[0], [0], b"guid-0123456789a")
        )
        bodies = [b"\x02" + one_position[1:], one_position[:2], one_position]

        def hostile():
            for publication_id, body in enumerate(bodies, start=100):
                envelope = EncryptedMetadata(body, publication_id)
                headers = {"p3s-kind": KIND_METADATA}
                yield mallory._send_to_ds(envelope, envelope.wire_size, headers, "ds")

        obs = Observability()
        with obs.installed():
            mallory.ports.drive(hostile())
            system.run()
            record = mallory.publish(METADATA, b"deal update", policy="org:acme")
            system.run()
        refusers = ["ds", "subscriber"] if delegated else ["subscriber", "ds"]
        assert obs.metrics.counter_total(f"op.{refusers[0]}.metadata_rejected") == 3
        assert obs.metrics.counter_total(f"op.{refusers[1]}.metadata_rejected") == 0
        assert [d.payload for d in system.deliveries_for(record)] == [b"deal update"]
        system.close()
