"""Multi-hop anonymization: relays compose without special-casing.

The anonymizer forwards an opaque (dst, inner_type, inner_payload)
envelope; when the inner request is itself an anon-forward addressed to a
second relay, the chain routes hop by hop — each relay learns only its
predecessor and successor, like a (cryptography-free) mix cascade.
"""

from repro.core import P3SConfig, P3SSystem, Recorder
from repro.core.anonymizer import AnonymizationService
from repro.core.messages import RPC_ANON_FORWARD, RPC_TOKEN_REQUEST, AnonEnvelope
from repro.core.pbe_ts import decode_token_response, encode_token_request
from repro.crypto.symmetric import SecretBox
from repro.pbe import AttributeSpec, Interest, MetadataSchema


def make_system():
    schema = MetadataSchema([AttributeSpec("topic", ("a", "b", "c", "d"))])
    system = P3SSystem(P3SConfig(schema=schema))
    second_relay = AnonymizationService(system.network.add_host("anon2"))
    second_relay.start()
    return system, second_relay


class TestAnonymizerChain:
    def test_two_hop_token_request(self):
        system, relay2 = make_system()
        alice = system.add_subscriber("alice", {"org"})
        system.run()

        session_key = SecretBox.generate_key()
        request = system.pbe_ts.pke.public.encrypt(
            encode_token_request(
                session_key,
                alice.credentials.certificate,
                Interest({"topic": "a"}),
                system.group.zr_bytes,
            )
        )
        # alice → anon → anon2 → pbe-ts
        inner = AnonEnvelope(dst="pbe-ts", inner_type=RPC_TOKEN_REQUEST, inner_payload=request)
        outer = AnonEnvelope(dst="anon2", inner_type=RPC_ANON_FORWARD, inner_payload=inner)
        responses = []

        def run_request():
            sealed = yield alice.connection.endpoint.call(
                "anon", RPC_ANON_FORWARD, outer, outer.wire_size
            )
            responses.append(sealed)

        system.sim.process(run_request())
        with Recorder() as recorder:
            system.run()

        token_bytes = decode_token_response(session_key, responses[0])
        assert token_bytes  # the token came back through both relays

        # hop-by-hop visibility: each relay knows only its neighbours,
        # and the PBE-TS saw the *second* relay as the requester
        assert ("alice", "anon2") in recorder.seen("link", system.anonymizer.name)
        assert ("anon", "pbe-ts") in recorder.seen("link", relay2.name)
        assert set(recorder.seen("source", system.pbe_ts.name)) == {"anon2"}

    def test_chain_latency_exceeds_single_hop(self):
        """Each extra hop costs one more store-and-forward RTT."""
        system, _ = make_system()
        alice = system.add_subscriber("alice", {"org"})
        system.run()
        start = system.now

        request = system.pbe_ts.pke.public.encrypt(
            encode_token_request(
                SecretBox.generate_key(),
                alice.credentials.certificate,
                Interest({"topic": "b"}),
                system.group.zr_bytes,
            )
        )
        inner = AnonEnvelope(dst="pbe-ts", inner_type=RPC_TOKEN_REQUEST, inner_payload=request)
        outer = AnonEnvelope(dst="anon2", inner_type=RPC_ANON_FORWARD, inner_payload=inner)
        finished = []

        def run_request():
            yield alice.connection.endpoint.call("anon", RPC_ANON_FORWARD, outer, outer.wire_size)
            finished.append(system.now)

        system.sim.process(run_request())
        system.run()
        elapsed = finished[0] - start
        # 3 hops out + 3 hops back at 45 ms latency each ≥ 270 ms
        assert elapsed > 6 * 0.045
