"""Component-level tests: ARA, PBE-TS, RS, DS, anonymizer, config."""

import pytest

from repro.core import P3SConfig, P3SSystem, Recorder
from repro.core.config import default_schema
from repro.core.ara import RegistrationAuthority
from repro.core.config import ComputeTimings
from repro.core.guid import GUID_BYTES, random_guid
from repro.core.messages import AnonEnvelope, EncryptedMetadata, PayloadSubmission, wire_size_of
from repro.crypto.group import PairingGroup
from repro.errors import RegistrationError, SerializationError, TokenRequestError
from repro.pbe import AttributeSpec, Interest, MetadataSchema

GROUP = PairingGroup("TOY")


def small_schema():
    return MetadataSchema([AttributeSpec("topic", ("a", "b", "c", "d"))])


class TestGuid:
    def test_length(self):
        assert len(random_guid()) == GUID_BYTES

    def test_uniqueness(self):
        assert len({random_guid() for _ in range(100)}) == 100


class TestMessages:
    def test_wire_size_of_bytes(self):
        assert wire_size_of(b"abc") == 3

    def test_wire_size_of_none(self):
        assert wire_size_of(None) == 16

    def test_wire_size_of_dataclasses(self):
        assert EncryptedMetadata(b"x" * 10, 1).wire_size == 10
        assert PayloadSubmission(b"g" * 16, b"c" * 100, 60.0).wire_size == 124
        assert AnonEnvelope("rs", "t", b"y" * 50).wire_size == 82

    def test_wire_size_of_unknown_type(self):
        with pytest.raises(SerializationError):
            wire_size_of(object())


class TestARA:
    def setup_method(self):
        self.ara = RegistrationAuthority(GROUP, small_schema())

    def test_register_subscriber_credentials(self):
        credentials = self.ara.register_subscriber("alice", {"org:acme"})
        assert credentials.certificate.role == "subscriber"
        assert credentials.cpabe_secret_key.attributes == frozenset({"org:acme"})
        assert credentials.schema.vector_length == 1  # one position of 4 symbols
        assert credentials.schema.attributes == small_schema().attributes

    def test_register_publisher_credentials(self):
        credentials = self.ara.register_publisher("bob")
        assert credentials.certificate.role == "publisher"
        assert credentials.hve_public_key.n == 1
        assert credentials.hve_public_key.alphabet == small_schema().alphabet_sizes == (4,)

    def test_duplicate_registration_rejected(self):
        self.ara.register_subscriber("alice", {"a"})
        with pytest.raises(RegistrationError):
            self.ara.register_subscriber("alice", {"a"})
        with pytest.raises(RegistrationError):
            self.ara.register_publisher("alice")

    def test_unknown_service_role_rejected(self):
        with pytest.raises(RegistrationError):
            self.ara.install_service("mailman", "m")

    def test_certificates_verify_under_ara_key(self):
        credentials = self.ara.register_subscriber("alice", {"a"})
        credentials.certificate.validate(
            self.ara.directory.ara_verify_key, "subscriber", now=0.0
        )


class TestPBETokenServer:
    def make_system(self):
        return P3SSystem(P3SConfig(schema=small_schema()))

    def test_valid_request_issues_token(self):
        system = self.make_system()
        alice = system.add_subscriber("alice", {"a"})
        system.subscribe(alice, Interest({"topic": "a"}))
        system.run()
        assert system.pbe_ts.issuer.tokens_issued == 1
        assert len(alice.tokens) == 1

    def test_publisher_certificate_rejected(self):
        """Only subscriber-role certificates may obtain tokens."""
        system = self.make_system()
        bob_credentials = system.ara.register_publisher("bob")
        alice = system.add_subscriber("alice", {"a"})
        system.run()
        # alice tries to use bob's publisher certificate
        from repro.core.pbe_ts import encode_token_request
        from repro.crypto.symmetric import SecretBox

        session_key = SecretBox.generate_key()
        body = encode_token_request(
            session_key, bob_credentials.certificate, Interest({"topic": "a"}), GROUP.zr_bytes
        )
        request = system.pbe_ts.pke.public.encrypt(body)
        sealed_holder = []

        def attempt():
            sealed = yield alice.connection.endpoint.call(
                "pbe-ts", "p3s.token-request", request, len(request)
            )
            sealed_holder.append(sealed)

        system.sim.process(attempt())
        system.run()
        from repro.core.pbe_ts import decode_token_response

        with pytest.raises(TokenRequestError):
            decode_token_response(session_key, sealed_holder[0])
        assert system.pbe_ts.issuer.tokens_issued == 0

    def test_expired_certificate_rejected(self):
        system = self.make_system()
        credentials = system.ara.register_subscriber("late", {"a"}, cert_not_after=0.0)
        from repro.mq.client import JmsConnection
        from repro.core.subscriber import Subscriber

        connection = JmsConnection(system.network.add_host("late"), "ds")
        connection.start()
        subscriber = Subscriber(
            credentials, connection, system.group, system.config.timings
        )
        system.run(until=10.0)  # move past expiry
        event = subscriber.subscribe(Interest({"topic": "a"}))
        failures = []
        event.add_callback(lambda e: failures.append(e.failure))
        with pytest.raises(TokenRequestError):
            system.run()

    def test_garbage_request_answered_with_error(self):
        system = self.make_system()
        alice = system.add_subscriber("alice", {"a"})
        system.run()
        responses = []

        def attempt():
            sealed = yield alice.connection.endpoint.call(
                "pbe-ts", "p3s.token-request", b"not a pke blob at all" * 10, 210
            )
            responses.append(sealed)

        system.sim.process(attempt())
        system.run()
        assert responses == [b"\x00"]


class TestRepositoryServer:
    def test_gc_counts(self):
        system = P3SSystem(P3SConfig(schema=small_schema(), t_g=0.0, rs_gc_interval_s=1.0))
        bob = system.add_publisher("bob")
        system.run()
        for _ in range(3):
            bob.publish({"topic": "a"}, b"x", policy="p", ttl_s=0.5)
        system.run()
        assert system.rs.item_count == 3
        system.run(until=system.now + 3.0)
        assert system.rs.item_count == 0
        assert system.rs.expired_count == 3

    def test_failed_retrieval_counter(self):
        system = P3SSystem(P3SConfig(schema=small_schema()))
        alice = system.add_subscriber("alice", {"a"})
        system.run()
        from repro.core.rs import encode_retrieval_request
        from repro.crypto.symmetric import SecretBox

        request = system.rs.pke.public.encrypt(
            encode_retrieval_request(SecretBox.generate_key(), b"\x01" * 16)
        )

        def attempt():
            yield alice.connection.endpoint.call("rs", "p3s.retrieve", request, len(request))

        system.sim.process(attempt())
        system.run()
        assert system.rs.store.failed_retrievals == 1


class TestAnonymizer:
    def test_relay_records_links_but_server_sees_relay(self):
        system = P3SSystem(P3SConfig(schema=small_schema()))
        alice = system.add_subscriber("alice", {"a"})
        system.subscribe(alice, Interest({"topic": "a"}))
        with Recorder() as recorder:
            system.run()
        assert ("alice", "pbe-ts") in recorder.seen("link", system.anonymizer.name)
        assert "alice" not in recorder.seen("source", system.pbe_ts.name)


class TestConfig:
    def test_with_override(self):
        config = P3SConfig()
        changed = config.with_(latency_s=0.010)
        assert changed.latency_s == 0.010
        assert config.latency_s == 0.045  # original untouched

    def test_default_schema_is_40_bits(self):
        schema = default_schema()
        bits = MetadataSchema(schema.attributes, "bit")
        assert bits.vector_length == 40  # Table 1: P = 40 bits
        assert schema.encoding == "symbol" and schema.alphabet_sizes == (16,) * 10

    def test_timings_symmetric_scales(self):
        timings = ComputeTimings()
        assert timings.symmetric(2_000_000) == pytest.approx(0.05)
