"""The protocol rules, driven with no substrate at all.

Every body in :mod:`repro.core` is a generator over a ports object
(:mod:`repro.net.ports`).  Here the ports are a recording fake — no
``Simulator``, no sockets, no event loop — and the driver is the ten
lines of :func:`run`.  Parties reach each other through a dict: a
``call`` runs the peer's registered handler on the spot.  This is the
battery that could not be written while each rule was welded to
``self.sim`` or to ``await``.
"""

from __future__ import annotations

import dataclasses
import json
from types import SimpleNamespace

import pytest

from repro.cluster.router import ClusterMap
from repro.core.anonymizer import AnonymizationService
from repro.core.ara import RegistrationAuthority
from repro.core.config import ComputeTimings
from repro.core.ds import DisseminationServer
from repro.core.messages import (
    METADATA_TOPIC,
    KIND_METADATA,
    KIND_PAYLOAD,
    KIND_TOKEN_REG,
    KIND_TOKEN_UNREG,
    RPC_ANON_FORWARD,
    RPC_RETRIEVE,
    RPC_STORE,
    RPC_TOKEN_REQUEST,
    AnonEnvelope,
    EncryptedMetadata,
    PayloadSubmission,
    wire_size_of,
)
from repro.core.pbe_ts import (
    PBETokenServer,
    TokenIssuer,
    decode_token_response,
    encode_token_request,
)
from repro.core.publisher import encrypt_metadata_envelope, encrypt_payload_ciphertext
from repro.core.rs import (
    RepositoryServer,
    RepositoryStore,
    decode_retrieval_request,
    decode_retrieval_response,
    encode_retrieval_request,
)
from repro.core.sightings import Recorder
from repro.core.subscriber import SubscriberProtocol
from repro.crypto import randomness
from repro.crypto.group import PairingGroup
from repro.crypto.pke import PKEKeyPair, pke_overhead
from repro.crypto.symmetric import SecretBox
from repro.errors import BrokerError, RetrievalError, TokenRequestError, TransportError
from repro.mq import client as mq_client
from repro.mq import messages as frames
from repro.mq.client import JmsConnection
from repro.mq.messages import JmsFrame
from repro.obs import Observability
from repro.par import pool as pool_mod
from repro.pbe.hve import HVE
from repro.pbe.schema import AttributeSpec, Interest, MetadataSchema
from repro.pbe.serialize import (
    deserialize_hve_token,
    serialize_hve_ciphertext,
    serialize_hve_token,
)
from repro.store import MemoryEngine
from repro.store.codec import NS_SUBS, NS_TOKENS, encode_token

TIMINGS = ComputeTimings()
SCHEMA = MetadataSchema(
    [AttributeSpec("topic", ("a", "b", "c", "d")), AttributeSpec("prio", ("lo", "hi"))]
)


# -- the fake substrate -----------------------------------------------------------


class _Failed:
    """What a port returns when the wait it stands for ends in an error."""

    def __init__(self, error: Exception):
        self.error = error


class _Wait:
    """What ``completable`` hands out: completed by now, or it never will be."""

    def __init__(self, what: str):
        self.what = what
        self.completed = False
        self.value = None

    def complete(self, value=None) -> None:
        self.completed, self.value = True, value


def run(gen):
    """The whole driver: answer every yield with the yielded value."""
    value = failure = None
    while True:
        try:
            target = gen.send(value) if failure is None else gen.throw(failure)
        except StopIteration as stop:
            return stop.value
        if isinstance(target, _Wait):
            # nothing runs concurrently here: an uncompleted wait has timed out
            target = (
                target.value
                if target.completed
                else _Failed(TransportError(f"{target.what} timed out"))
            )
        value, failure = (
            (None, target.error) if isinstance(target, _Failed) else (target, None)
        )


class RecordingPorts:
    """Ports that write down what the body asked for and answer at once."""

    def __init__(self, name: str, net: dict | None = None):
        self.name = name
        self.net = net if net is not None else {}
        self.net[name] = self
        self.clock = 0.0
        self.handlers: dict = {}
        self.casts: list[tuple] = []  # (dst, msg_type, payload, headers)
        self.calls: list[tuple] = []  # (dst, msg_type)
        self.computed: list[float] = []
        self.slept: list[float] = []
        self.spawned = 0
        self.call_failures: list[Exception | None] = []  # consumed one per call

    def now(self) -> float:
        return self.clock

    def compute(self, model_seconds: float) -> None:
        self.computed.append(model_seconds)

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)

    def serve(self, msg_type, handler) -> None:
        self.handlers[msg_type] = handler

    def deliver(self, src: str, msg_type: str, payload, headers=None):
        """Hand one frame to this party's handler; returns its reply."""
        message = SimpleNamespace(msg_type=msg_type, payload=payload, headers=headers or {})
        result = self.handlers[msg_type](src, message)
        return run(result) if hasattr(result, "send") else result

    def cast(self, dst, msg_type, payload, size_bytes, headers=None) -> None:
        self.casts.append((dst, msg_type, payload, headers))
        peer = self.net.get(dst)
        if peer is not None and msg_type in peer.handlers:
            peer.deliver(self.name, msg_type, payload, headers)

    def call(self, dst, msg_type, payload, size_bytes, headers=None, timeout_s=None):
        self.calls.append((dst, msg_type))
        failure = self.call_failures.pop(0) if self.call_failures else None
        if failure is not None:
            return _Failed(failure)
        reply, _size = self.net[dst].deliver(self.name, msg_type, payload, headers)
        return reply

    def completable(self, timeout_s, what):
        wait = _Wait(what)
        return wait, wait.complete

    def offload(self, fn, *args, span=None):
        return fn(*args)

    def start(self) -> None:
        pass

    def drive(self, gen):
        return run(gen)

    finish = drive

    def spawn(self, gen) -> None:
        self.spawned += 1
        run(gen)

    def sent(self, msg_type: str) -> list[str]:
        """Destinations of the casts of one type, in order."""
        return [dst for dst, kind, _, _ in self.casts if kind == msg_type]


@pytest.fixture(scope="module")
def group():
    with randomness.seeded(0x9012):
        yield PairingGroup("TOY")


@pytest.fixture(scope="module")
def ara(group):
    return RegistrationAuthority(group, SCHEMA)


def _frame(kind: str | None, body=b"", topic="p3s.publish") -> JmsFrame:
    headers = {} if kind is None else {"p3s-kind": kind}
    return JmsFrame(topic=topic, body=body, body_size=wire_size_of(body), headers=headers)


def _one_node() -> ClusterMap:
    """The topology of a single-node deployment."""
    return ClusterMap(["ds"], ["rs"])


def _connected_ds(ports, subscribers, **options) -> DisseminationServer:
    ds = DisseminationServer(ports, _one_node(), **options)
    for name in subscribers:
        ports.deliver(name, frames.CONNECT, JmsFrame())
        ports.deliver(name, frames.SUBSCRIBE, JmsFrame(topic=METADATA_TOPIC))
    return ds


def _publish(ds, src: str, frame: JmsFrame) -> None:
    ds.ports.deliver(src, frames.PUBLISH, frame)


def _hostile_metadata(group, valid: bytes) -> list[EncryptedMetadata]:
    """What a publisher can put in a metadata frame that no receiver may
    decode: an unknown leading byte, a truncated body, and a well-formed
    ciphertext one position long."""
    hve = HVE(group)
    short = serialize_hve_ciphertext(group, hve.encrypt(hve.setup(1)[0], [0], b"guid-0123456789a"))
    bodies = [b"\x02" + valid[1:], valid[:2], short]
    return [EncryptedMetadata(body, publication_id) for publication_id, body in enumerate(bodies)]


# -- DS ----------------------------------------------------------------------------


class TestDisseminationRouting:
    def test_metadata_is_broadcast_in_subscription_order(self):
        ports = RecordingPorts("ds")
        ds = _connected_ds(ports, ["carol", "alice", "bob"])
        envelope = EncryptedMetadata(hve_bytes=b"x" * 40, publication_id=1)
        with Recorder() as recorder:
            _publish(ds, "pub", _frame(KIND_METADATA, envelope))
        assert ports.sent(frames.DELIVER) == ["carol", "alice", "bob"]
        delivered = [p for _, kind, p, _ in ports.casts if kind == frames.DELIVER]
        assert all(f.topic == METADATA_TOPIC and f.body is envelope for f in delivered)
        assert len({f.message_id for f in delivered}) == 1  # one delivery frame, fanned out
        assert ds.publications_by_publisher == {"pub": 1}
        assert recorder.seen("frame", "ds") == [(KIND_METADATA, 40)]
        assert ports.spawned == 0

    def test_payload_is_forwarded_to_the_rs_only(self):
        ports = RecordingPorts("ds")
        ds = _connected_ds(ports, ["alice"])
        submission = PayloadSubmission(guid=b"g" * 16, ciphertext=b"c" * 64, ttl_s=5.0)
        _publish(ds, "pub", _frame(KIND_PAYLOAD, submission))
        assert ports.sent(RPC_STORE) == ["rs"]
        assert ports.sent(frames.DELIVER) == []
        assert ds.publications_by_publisher == {}  # the rate is counted on metadata

    def test_token_frames_edit_the_registry_and_go_nowhere(self, group):
        hve = HVE(group)
        token = serialize_hve_token(group, hve.gen_token(hve.setup(4)[1], [1, None, None, None]))
        ports = RecordingPorts("ds")
        ds = _connected_ds(ports, ["alice"], group=group, vector_length=4)
        try:
            _publish(ds, "alice", _frame(KIND_TOKEN_REG, token))
            assert ds.registered_tokens == [("alice", token)]
            _publish(ds, "alice", _frame(KIND_TOKEN_UNREG, token))
            assert ds.registered_tokens == []
            assert ports.casts == []
        finally:
            ds.close_match_pool()

    def test_a_ds_without_a_matcher_refuses_token_frames_unopened(self):
        """Only a delegated-matching plan hands the DS a group: without one,
        a client's token frames leave no entry, write, pool or sighting."""
        ports = RecordingPorts("ds")
        ds = _connected_ds(ports, ["alice"])
        obs = Observability()
        with obs.installed(), Recorder() as recorder:
            _publish(ds, "alice", _frame(KIND_TOKEN_REG, b"tok"))
            _publish(ds, "alice", _frame(KIND_TOKEN_UNREG, b"tok"))
        assert obs.metrics.counter_total("op.ds.token_rejected") == 2
        assert ds.registered_tokens == [] and ds.store.items(NS_TOKENS) == []
        assert ds._match_pool is None and recorder.seen("token", "ds") == []
        _publish(ds, "pub", _frame(KIND_METADATA, EncryptedMetadata(b"x", 1)))
        assert ports.sent(frames.DELIVER) == ["alice"] and ports.spawned == 0

    def test_unmarked_frames_are_plain_jms(self):
        ports = RecordingPorts("ds")
        ds = _connected_ds(ports, ["alice"])
        ports.deliver("alice", frames.SUBSCRIBE, JmsFrame(topic="news"))
        _publish(ds, "pub", _frame(None, b"hello", topic="news"))
        ((dst, kind, frame, _),) = ports.casts
        assert (dst, kind, frame.topic, frame.body) == ("alice", frames.DELIVER, "news", b"hello")

    def test_subscribe_before_connect_is_rejected_and_not_persisted(self):
        ports = RecordingPorts("ds")
        ds = DisseminationServer(ports, _one_node())
        with pytest.raises(BrokerError):
            ports.deliver("rogue", frames.SUBSCRIBE, JmsFrame(topic=METADATA_TOPIC))
        assert ds.subscriptions[METADATA_TOPIC] == []
        assert ds.store.items(NS_SUBS) == []

    def test_lost_connection_drops_one_delivery_not_the_fan_out(self):
        class Flaky(RecordingPorts):
            def cast(self, dst, *args, **kwargs):
                if dst == "alice":
                    return _Failed(TransportError("gone"))
                return super().cast(dst, *args, **kwargs)

        ports = Flaky("ds")
        ds = _connected_ds(ports, ["alice", "bob"])
        _publish(ds, "pub", _frame(KIND_METADATA, EncryptedMetadata(b"x", 1)))
        assert ports.sent(frames.DELIVER) == ["bob"]
        assert ds.delivered_count == 1


class TestRsTargets:
    def test_single_node_map_targets_the_one_rs(self):
        ds = DisseminationServer(RecordingPorts("ds"), _one_node())
        assert ds._rs_targets(b"g" * 16) == ("rs",)

    def test_one_shard_cluster_keeps_the_configured_rs(self):
        cluster = ClusterMap(ds_names=["ds0", "ds1"], rs_names=["rs0"])
        ds = DisseminationServer(RecordingPorts("ds0"), cluster)
        assert ds._rs_targets(b"g" * 16) == ("rs0",)

    def test_replica_set_comes_from_the_ring(self):
        cluster = ClusterMap(
            ds_names=["ds0"], rs_names=["rs0", "rs1", "rs2"], rs_replication=2
        )
        ports = RecordingPorts("ds0")
        ds = DisseminationServer(ports, cluster)
        guid = b"\x07" * 16
        assert ds._rs_targets(guid) == cluster.rs_replicas(guid)
        assert len(set(ds._rs_targets(guid))) == 2
        _publish(ds, "pub", _frame(KIND_PAYLOAD, PayloadSubmission(guid, b"c", 1.0)))
        assert tuple(ports.sent(RPC_STORE)) == cluster.rs_replicas(guid)


class TestDelegatedMatching:
    @pytest.fixture(scope="class")
    def tokens(self, group):
        hve = HVE(group)
        public, master = hve.setup(4)

        def token(y):
            return serialize_hve_token(group, hve.gen_token(master, y))

        hve_bytes = serialize_hve_ciphertext(
            group, hve.encrypt(public, [1, 0, 1, 1], b"guid-0123456789a")
        )
        return {
            "hit": token([1, 0, None, None]),
            "miss": token([0, None, None, None]),
            "hve_bytes": hve_bytes,
        }

    def test_skip_and_deliver_sets_follow_subscription_order(self, group, tokens):
        ports = RecordingPorts("ds")
        ds = _connected_ds(
            ports, ["dave", "alice", "bob", "carol"], group=group, vector_length=4,
            timings=TIMINGS, match_workers=0,
        )  # fmt: skip
        try:
            ds.register_token("alice", tokens["hit"])
            ds.register_token("bob", tokens["miss"])
            ds.register_token("carol", tokens["miss"])
            ds.register_token("carol", tokens["hit"])  # any one token suffices
            envelope = EncryptedMetadata(hve_bytes=tokens["hve_bytes"], publication_id=9)
            _publish(ds, "pub", _frame(KIND_METADATA, envelope))
            # dave holds no token: he still gets the baseline broadcast
            assert ports.sent(frames.DELIVER) == ["dave", "alice", "carol"]
            assert ports.spawned == 1  # the match ran as an activity of its own
            # modelled makespan: 4 registrations, 2 distinct tokens, one serial lane
            assert ports.computed == [2 * TIMINGS.pbe_match]
        finally:
            ds.close_match_pool()

    @pytest.mark.parametrize("split_at, lanes", [(3, 1), (2, 2)], ids=["below", "at"])
    def test_modelled_match_time_is_distinct_tokens_over_lanes_in_use(
        self, group, tokens, monkeypatch, split_at, lanes
    ):
        """The pool evaluates byte-equal registrations once, and splits over
        its two workers only at ``SPLIT_AT`` distinct tokens: five
        registrations of two tokens cost two evaluations on one lane below
        it, one on each of two lanes at it."""
        monkeypatch.setitem(pool_mod.SPLIT_AT, "TOY", split_at)
        ports = RecordingPorts("ds")
        names = ["alice", "bob", "carol", "dave", "erin"]
        ds = _connected_ds(
            ports, names, group=group, vector_length=4, timings=TIMINGS, match_workers=2
        )
        try:
            for name, kind in zip(names, ["hit", "miss", "miss", "hit", "hit"]):
                ds.register_token(name, tokens[kind])
            envelope = EncryptedMetadata(hve_bytes=tokens["hve_bytes"], publication_id=9)
            _publish(ds, "pub", _frame(KIND_METADATA, envelope))
            assert ports.computed == [2 // lanes * TIMINGS.pbe_match]
            assert len(ds.match_pool.partitions) == lanes
            assert ports.sent(frames.DELIVER) == ["alice", "dave", "erin"]
        finally:
            ds.close_match_pool()

    def test_registration_commits_the_ds_to_delegated_matching(self, group, tokens):
        """One warm-up rule (drift #2): the pool exists as soon as a token
        is registered or recovered — not at the first matched publication."""
        engine = MemoryEngine()
        options = dict(group=group, vector_length=4, match_workers=0, store=engine)
        ds = DisseminationServer(RecordingPorts("ds"), _one_node(), **options)
        assert ds._match_pool is None
        ds.register_token("alice", tokens["hit"])
        assert ds._match_pool is not None
        ds.crash()
        assert ds._match_pool is None and ds.registered_tokens == []

        reborn = DisseminationServer(RecordingPorts("ds"), _one_node(), **options)
        assert reborn._match_pool is None  # nothing recovered yet: memory is not durable
        assert reborn.recover_registrations() == 1
        assert reborn._match_pool is not None
        reborn.close_match_pool()

    @staticmethod
    def _reframed(group, token_bytes: bytes, **header) -> bytes:
        """A well-framed token with its header fields rewritten."""
        token = deserialize_hve_token(group, token_bytes)
        return serialize_hve_token(group, dataclasses.replace(token, **header))

    def hostile_tokens(self, group, tokens) -> dict[str, bytes]:
        """What a connected client can put in a ``p3s.token-reg`` frame to
        make the matcher raise: each of these used to fail the whole
        batch, for every subscriber and every later publication."""
        hit = tokens["hit"]
        return {
            "garbage": b"\x00" * 9,  # SerializationError: not a token frame at all
            "truncated": hit[:-1],
            "n+1": self._reframed(group, hit, n=5),  # ParameterError in _query_key
            "n-1": self._reframed(group, hit, n=3),
            "position>=n": self._reframed(group, hit, positions=(0, 4)),  # IndexError
            "positions-not-increasing": self._reframed(group, hit, positions=(1, 1)),
            "point-off-curve": hit[:-1] + bytes([hit[-1] ^ 1]),
        }

    def test_hostile_token_frames_are_counted_not_stored(self, group, tokens):
        ports = RecordingPorts("ds")
        ds = _connected_ds(
            ports, ["alice", "mallory"], group=group, vector_length=4,
            timings=TIMINGS, match_workers=0,
        )  # fmt: skip
        obs = Observability()
        try:
            ds.register_token("alice", tokens["hit"])
            registered = list(ds.registered_tokens)
            hostile = self.hostile_tokens(group, tokens)
            with obs.installed():
                for frame_body in hostile.values():
                    _publish(ds, "mallory", _frame(KIND_TOKEN_REG, frame_body))
            assert obs.metrics.counter_total("op.ds.token_rejected") == len(hostile)
            assert ds.registered_tokens == registered
            assert len(ds.store.items(NS_TOKENS)) == 1
            # the honest subscriber's delivery is untouched; mallory holds no
            # token, so she gets the baseline broadcast
            envelope = EncryptedMetadata(hve_bytes=tokens["hve_bytes"], publication_id=1)
            _publish(ds, "pub", _frame(KIND_METADATA, envelope))
            assert ports.sent(frames.DELIVER) == ["alice", "mallory"]
        finally:
            ds.close_match_pool()

    def test_hostile_metadata_frames_are_counted_not_raised(self, group, tokens):
        ports = RecordingPorts("ds")
        ds = _connected_ds(
            ports, ["alice"], group=group, vector_length=4, timings=TIMINGS, match_workers=0
        )
        obs = Observability()
        try:
            ds.register_token("alice", tokens["hit"])
            with obs.installed():
                for envelope in _hostile_metadata(group, tokens["hve_bytes"]):
                    _publish(ds, "mallory", _frame(KIND_METADATA, envelope))
            assert obs.metrics.counter_total("op.ds.metadata_rejected") == 3
            assert ports.sent(frames.DELIVER) == []
            envelope = EncryptedMetadata(hve_bytes=tokens["hve_bytes"], publication_id=9)
            _publish(ds, "pub", _frame(KIND_METADATA, envelope))
            assert ports.sent(frames.DELIVER) == ["alice"]
        finally:
            ds.close_match_pool()

    def test_hostile_tokens_already_on_disk_are_not_recovered(self, group, tokens):
        """The same door on the way back in: a registry written before the
        check existed (or by other hands) must not re-arm the failure."""
        engine = MemoryEngine()
        for index, token in enumerate(self.hostile_tokens(group, tokens).values()):
            engine.put(NS_TOKENS, b"k%d" % index, encode_token("mallory", token))
        engine.put(NS_TOKENS, b"honest", encode_token("alice", tokens["hit"]))
        ds = DisseminationServer(
            RecordingPorts("ds"), _one_node(), group=group, vector_length=4, store=engine
        )
        try:
            assert ds.recover_registrations() == 1
            assert ds.registered_tokens == [("alice", tokens["hit"])]
        finally:
            ds.close_match_pool()

    def test_without_a_group_tokens_are_recorded_but_never_matched(self):
        """Seen (the sighting is recorded), then refused: a DS without a
        matcher admits no token, so it never commits to delegated matching."""
        ports = RecordingPorts("ds")
        ds = _connected_ds(ports, ["alice"])
        obs = Observability()
        with obs.installed(), Recorder() as recorder:
            ds.register_token("alice", b"tok")
        assert recorder.seen("token", "ds") == [("alice", b"tok")]
        assert obs.metrics.counter_total("op.ds.token_rejected") == 1
        assert ds.registered_tokens == [] and ds._match_pool is None
        _publish(ds, "pub", _frame(KIND_METADATA, EncryptedMetadata(b"x", 1)))
        assert ports.sent(frames.DELIVER) == ["alice"] and ports.spawned == 0


class TestRegistryRoundTrip:
    def test_put_delete_recover_against_memory_engine(self, group):
        hve = HVE(group)
        master = hve.setup(4)[1]
        t1, t2 = (
            serialize_hve_token(group, hve.gen_token(master, y))
            for y in ([1, None, None, None], [0, None, None, None])
        )
        engine = MemoryEngine()
        options = dict(group=group, vector_length=4, match_workers=0, store=engine)
        ds = _connected_ds(RecordingPorts("ds"), ["alice", "bob"], **options)
        reborn = DisseminationServer(RecordingPorts("ds"), _one_node(), **options)
        try:
            ds.register_token("alice", t1)
            ds.register_token("alice", t1)  # idempotent
            ds.register_token("bob", t2)
            assert len(engine.items(NS_TOKENS)) == 2
            assert len(engine.items(NS_SUBS)) == 2
            ds.unregister_token("bob", t2)
            assert len(engine.items(NS_TOKENS)) == 1

            assert reborn.registered_tokens == [] and reborn.recovered_registrations == 0
            assert reborn.recover_registrations() == 3
            assert reborn.registered_tokens == [("alice", t1)]
            assert sorted(reborn.subscriptions[METADATA_TOPIC]) == ["alice", "bob"]
            assert reborn.recover_registrations() == 0  # nothing new the second time
        finally:
            ds.close_match_pool()
            reborn.close_match_pool()

        # a DS without a matcher recovers the subscriptions but refuses the
        # stored token, so no pool is owed: it stays match_pool_warm
        obs = Observability()
        with obs.installed():
            plain = DisseminationServer(RecordingPorts("ds"), _one_node(), store=engine)
            assert plain.recover_registrations() == 2
        assert obs.metrics.counter_total("op.ds.token_rejected") == 1
        assert sorted(plain.subscriptions[METADATA_TOPIC]) == ["alice", "bob"]
        assert plain.registered_tokens == [] and plain._match_pool is None


# -- RS, PBE-TS, anonymizer --------------------------------------------------------


def _rs(ports, group) -> RepositoryServer:
    return RepositoryServer(ports, PKEKeyPair(group), TIMINGS, RepositoryStore(t_g=1.0))


class TestRepositoryExchange:
    def test_store_then_retrieve_round_trip(self, group):
        ports = RecordingPorts("rs")
        rs = _rs(ports, group)
        ports.clock = 10.0
        ports.deliver("ds", RPC_STORE, PayloadSubmission(b"g" * 16, b"ciphertext", 5.0))
        assert rs.holds(b"g" * 16)
        session_key = SecretBox.generate_key()
        request = rs.pke.public.encrypt(encode_retrieval_request(session_key, b"g" * 16))
        with Recorder() as recorder:
            sealed, size = ports.deliver("anon", RPC_RETRIEVE, request)
        assert size == len(sealed)
        assert decode_retrieval_response(session_key, sealed) == b"ciphertext"
        assert recorder.seen("source", "rs") == ["anon"]
        assert ports.computed[0] == TIMINGS.pke_op and len(ports.computed) == 2

    def test_expiry_follows_the_ports_clock(self, group):
        ports = RecordingPorts("rs")
        rs = _rs(ports, group)
        ports.deliver("ds", RPC_STORE, PayloadSubmission(b"g" * 16, b"c", 5.0))
        ports.clock = 6.0  # TTL 5 + T_G 1
        session_key = SecretBox.generate_key()
        request = rs.pke.public.encrypt(encode_retrieval_request(session_key, b"g" * 16))
        sealed, _ = ports.deliver("anon", RPC_RETRIEVE, request)
        with pytest.raises(RetrievalError):
            decode_retrieval_response(session_key, sealed)
        assert rs.collect_garbage() == 1 and rs.item_count == 0

    def test_malformed_request_gets_the_bare_error(self, group):
        ports = RecordingPorts("rs")
        _rs(ports, group)
        stray = PKEKeyPair(group).public.encrypt(b"addressed to some other server")
        assert ports.deliver("anon", RPC_RETRIEVE, stray) == (b"\x00", 1)

    def test_crashed_rs_loses_stores_and_answers_nothing_useful(self, group):
        ports = RecordingPorts("rs")
        rs = _rs(ports, group)
        rs.crash()
        ports.deliver("ds", RPC_STORE, PayloadSubmission(b"g" * 16, b"c", 5.0))
        assert rs.item_count == 0
        assert ports.deliver("anon", RPC_RETRIEVE, b"whatever") == (b"", 1)


class TestTokenRequestExchange:
    def test_token_is_minted_and_sealed_under_the_session_key(self, group, ara):
        ports = RecordingPorts("pbe-ts")
        master_key, verify_key = ara.provision_pbe_ts()
        server = PBETokenServer(
            ports,
            TokenIssuer(HVE(group), master_key, SCHEMA, verify_key),
            PKEKeyPair(group),
            TIMINGS,
        )
        credentials = ara.register_subscriber("ts-alice", {"org"})
        session_key = SecretBox.generate_key()
        body = encode_token_request(
            session_key, credentials.certificate, Interest({"topic": "a"}), group.zr_bytes
        )
        with Recorder() as recorder:
            sealed, _ = ports.deliver("anon", RPC_TOKEN_REQUEST, server.pke.public.encrypt(body))
        token = deserialize_hve_token(group, decode_token_response(session_key, sealed))
        assert token is not None and server.issuer.tokens_issued == 1
        assert recorder.seen("source", "pbe-ts") == ["anon"] and server.token_requests == 1
        assert ports.computed[:2] == [TIMINGS.pke_op, TIMINGS.pbe_token_gen]

    def test_malformed_request_gets_the_bare_error(self, group, ara):
        ports = RecordingPorts("pbe-ts")
        master_key, verify_key = ara.provision_pbe_ts()
        PBETokenServer(
            ports,
            TokenIssuer(HVE(group), master_key, SCHEMA, verify_key),
            PKEKeyPair(group),
            TIMINGS,
        )
        stray = PKEKeyPair(group).public.encrypt(b"addressed to some other server")
        assert ports.deliver("anon", RPC_TOKEN_REQUEST, stray) == (b"\x00", 1)


# well-encrypted request bodies of the wrong shape: the first three escaped
# decode_retrieval_request as a TypeError, and a short K_s decoded and only
# failed at SecretBox, after the RS's item lookup
WRONG_SHAPE_BODIES = {
    "a list": b"[]",
    "a number": b"5",
    "ks not a string": b'{"ks": 5, "guid": "aa"}',
    "K_s not 32 bytes": b'{"ks": "aa", "guid": "aa"}',
}


def _hostile(group, pke):
    """PKE ciphertexts a hostile peer can send: each too short to hold
    an ephemeral point plus a sealed body, cut inside the seal, or a
    well-encrypted body of the wrong shape."""
    sealed = pke.public.encrypt(b"{}")
    floor = pke_overhead(group)
    return {
        "empty": b"",
        "one byte": b"\x00",
        "point only": sealed[: group.g1_bytes],
        "seal cut below its overhead": sealed[: floor - 1],
        "seal cut by one byte": sealed[:-1],
        **{case: pke.public.encrypt(body) for case, body in WRONG_SHAPE_BODIES.items()},
    }


HOSTILE_CASES = ("empty", "one byte", "point only", "seal cut below its overhead",
                 "seal cut by one byte", *WRONG_SHAPE_BODIES)  # fmt: skip


class TestHostileRequestBytes:
    """A short PKE ciphertext or a body of the wrong shape is refused as a
    bad request by both decoders that face the anonymizer, never an
    escaped crypto or type error (which would kill the RS / PBE-TS handler)."""

    @pytest.mark.parametrize("case", HOSTILE_CASES)
    def test_retrieval_request_is_refused(self, group, case):
        pke = PKEKeyPair(group)
        with pytest.raises(RetrievalError):
            decode_retrieval_request(pke, _hostile(group, pke)[case])

    @pytest.mark.parametrize("case", HOSTILE_CASES)
    def test_token_request_is_refused(self, group, ara, case):
        pke = PKEKeyPair(group)
        master_key, verify_key = ara.provision_pbe_ts()
        issuer = TokenIssuer(HVE(group), master_key, SCHEMA, verify_key)
        with pytest.raises(TokenRequestError):
            issuer.open_request(pke, _hostile(group, pke)[case])

    @pytest.mark.parametrize("case", HOSTILE_CASES)
    def test_rs_handler_survives_and_answers_the_bare_error(self, group, case):
        ports = RecordingPorts("rs")
        rs = _rs(ports, group)
        assert ports.deliver("anon", RPC_RETRIEVE, _hostile(group, rs.pke)[case]) == (b"\x00", 1)


WRONG_SHAPES = ("a list", "a string", "a number", "ks not a string",
                "certificate body a list", "not_after not a number", "K_s not 32 bytes",
                "interest nested deep")  # fmt: skip


@pytest.fixture(scope="module")
def wrong_shapes(group, ara):
    """``(credentials, {case: body})``: token-request plaintexts that decrypt
    under the PBE-TS key but are not the 3-tuple of strings around a
    certificate of the right field types."""
    credentials = ara.register_subscriber("ts-shapes", {"org"})
    certificate = credentials.certificate
    request = json.loads(
        encode_token_request(b"k" * 32, certificate, Interest({"topic": "a"}), group.zr_bytes)
    )
    signature = certificate.signature.to_bytes(group.zr_bytes)

    def certificate_body(body: bytes) -> dict:
        return dict(request, cert=(len(body).to_bytes(4, "big") + body + signature).hex())

    fields = {"not_after": "x", "role": "subscriber", "subject": certificate.subject}
    bodies = {
        "a list": [1],
        "a string": "x",
        "a number": 5,
        "ks not a string": dict(request, ks=5),
        "certificate body a list": certificate_body(b"[1]"),
        "not_after not a number": certificate_body(json.dumps(fields, sort_keys=True).encode()),
        "K_s not 32 bytes": dict(request, ks="aa"),
        "interest nested deep": dict(request, interest="[" * 100_000),
    }
    return credentials, {case: json.dumps(body).encode() for case, body in bodies.items()}


class TestWrongShapeTokenRequests:
    """A well-encrypted token request of the wrong shape is malformed.  The
    first six escaped the PBE-TS handler as a ``TypeError``: five from
    ``open_request``, one from ``authorize`` (``now > "x"``), before the
    signature check — and a non-``ReproError`` is not refused and counted.
    A deeply nested interest escaped as a ``RecursionError``, and a short
    ``K_s`` failed only at ``SecretBox``, after a token was minted."""

    @pytest.mark.parametrize("case", WRONG_SHAPES)
    def test_is_refused_as_malformed(self, group, ara, wrong_shapes, case):
        pke = PKEKeyPair(group)
        master_key, verify_key = ara.provision_pbe_ts()
        issuer = TokenIssuer(HVE(group), master_key, SCHEMA, verify_key)
        with pytest.raises(TokenRequestError):
            issuer.open_request(pke, pke.public.encrypt(wrong_shapes[1][case]))

    def test_server_answers_the_bare_error_and_keeps_serving(self, group, ara, wrong_shapes):
        credentials, bodies = wrong_shapes
        ports = RecordingPorts("pbe-ts")
        master_key, verify_key = ara.provision_pbe_ts()
        server = PBETokenServer(
            ports,
            TokenIssuer(HVE(group), master_key, SCHEMA, verify_key),
            PKEKeyPair(group),
            TIMINGS,
        )
        for case in WRONG_SHAPES:
            request = server.pke.public.encrypt(bodies[case])
            assert ports.deliver("anon", RPC_TOKEN_REQUEST, request) == (b"\x00", 1), case
        session_key = SecretBox.generate_key()
        body = encode_token_request(
            session_key, credentials.certificate, Interest({"topic": "a"}), group.zr_bytes
        )
        with Recorder() as recorder:
            sealed, _ = ports.deliver("anon", RPC_TOKEN_REQUEST, server.pke.public.encrypt(body))
        assert deserialize_hve_token(group, decode_token_response(session_key, sealed)) is not None
        assert server.issuer.tokens_issued == 1 and len(recorder.seen("request")) == 1


class TestAnonymizerRelay:
    def test_inner_request_is_reoriginated(self):
        net: dict = {}
        relay_ports = RecordingPorts("anon", net)
        relay = AnonymizationService(relay_ports)
        seen = []
        RecordingPorts("rs", net).serve(
            RPC_RETRIEVE, lambda src, message: (seen.append(src), (b"reply", 5))[1]
        )
        envelope = AnonEnvelope(dst="rs", inner_type=RPC_RETRIEVE, inner_payload=b"req")
        with Recorder() as recorder:
            assert relay_ports.deliver("alice", RPC_ANON_FORWARD, envelope) == (b"reply", 5)
        assert seen == ["anon"]  # the RS never sees alice
        assert recorder.seen("link", "anon") == [("alice", "rs")] and relay.forwarded_count == 1


# -- JMS client ---------------------------------------------------------------------


class TestJmsClient:
    def _client(self, brokers=("ds0", "ds1")):
        net: dict = {}
        ports = RecordingPorts("alice", net)
        connection = JmsConnection(ports, brokers)
        connection.start()
        return net, ports, connection

    def test_registration_reaches_every_broker_connect_first(self):
        _, ports, connection = self._client()
        assert ports.sent(frames.CONNECT) == ["ds0", "ds1"]
        got = []
        connection.create_session().create_consumer("t").set_message_listener(got.append)
        assert ports.sent(frames.SUBSCRIBE) == ["ds0", "ds1"]
        ports.casts.clear()
        connection.reconnect()  # §6.1: a restarted DS rebuilt its registry from scratch
        assert ports.sent(frames.CONNECT) == ports.sent(frames.SUBSCRIBE) == ["ds0", "ds1"]

    def test_ack_returns_to_the_broker_that_delivered(self):
        _, ports, connection = self._client()
        got = []
        connection.create_session().create_consumer("t").set_message_listener(got.append)
        ports.deliver("ds1", frames.DELIVER, JmsFrame(topic="t", body=b"x", message_id=9))
        ports.deliver("ds1", frames.DELIVER, JmsFrame(topic="other", body=b"y", message_id=10))
        assert [frame.body for frame in got] == [b"x"]
        (ack,) = [(dst, p.message_id) for dst, kind, p, _ in ports.casts if kind == frames.ACK]
        assert ack == ("ds1", 9)

    def test_reliable_publish_retransmits_until_acked_and_the_broker_dedups(self):
        net, ports, connection = self._client(brokers=("ds",))
        ds_ports = RecordingPorts("ds", net)
        ds = _connected_ds(ds_ports, ["alice"])
        ds.crashed = True  # the first transmission falls on a dead broker
        producer = connection.create_session().create_producer("p3s.publish")

        def revive_then_sleep(seconds):
            ports.slept.append(seconds)
            ds.crashed = False

        ports.sleep = revive_then_sleep
        envelope = EncryptedMetadata(hve_bytes=b"x" * 40, publication_id=1)
        body = producer.send(
            envelope, 40, headers={"p3s-kind": KIND_METADATA}, broker="ds", reliable=True
        )
        assert run(body) is True
        assert ports.sent(frames.PUBLISH) == ["ds", "ds"] and len(ports.slept) == 1
        assert connection.publish_retransmits == 1 and connection.publish_failures == 0
        assert ds.published_count == 1 and ds.duplicate_publishes == 0
        assert connection._pending_acks == {}

    def test_reliable_publish_gives_up_after_its_budget(self, monkeypatch):
        monkeypatch.setattr(mq_client, "PUBLISH_RETRIES", 2)
        _, ports, connection = self._client(brokers=("ds",))  # nobody is listening on "ds"
        producer = connection.create_session().create_producer("p3s.publish")
        assert run(producer.send(b"x", 1, reliable=True)) is False
        assert len(ports.sent(frames.PUBLISH)) == 3  # 1 + PUBLISH_RETRIES
        assert connection.publish_failures == 1 and connection._pending_acks == {}


# -- subscriber --------------------------------------------------------------------


class TestSubscriberRetrieval:
    @pytest.fixture()
    def world(self, group, ara):
        """alice, an anonymizer and two RS replicas behind a ClusterMap."""
        net: dict = {}
        replicas = {name: _rs(RecordingPorts(name, net), group) for name in ("rs0", "rs1")}
        AnonymizationService(RecordingPorts("anon", net))
        cluster = ClusterMap(
            ds_names=["ds0", "ds1"],
            rs_names=list(replicas),
            rs_replication=2,
            rs_public_keys={name: rs.pke.public for name, rs in replicas.items()},
        )
        credentials = ara.register_subscriber(f"alice-{len(ara._registered)}", {"org"})
        publisher = ara.register_publisher(f"pub-{len(ara._registered)}")
        directory = SimpleNamespace(
            anonymizer_name="anon", cluster=cluster
        )
        ports = RecordingPorts("alice", net)
        alice = SubscriberProtocol(
            SimpleNamespace(
                name="alice", schema=SCHEMA, directory=directory,
                cpabe_secret_key=credentials.cpabe_secret_key,
            ),
            JmsConnection(ports, ("ds0", "ds1")),
            group,
            TIMINGS,
        )
        alice.start()
        guid = b"\x42" * 16
        ciphertext = encrypt_payload_ciphertext(
            alice.cpabe, group, publisher.cpabe_public_key, guid, b"the payload", "org"
        )
        return SimpleNamespace(
            alice=alice, ports=ports, replicas=replicas, cluster=cluster, guid=guid,
            submission=PayloadSubmission(guid, ciphertext, 60.0), publisher=publisher,
        )

    def test_retries_rotate_through_the_replica_set(self, world):
        order = world.cluster.rs_replicas(world.guid)
        # only the *second* replica ever got the payload
        world.replicas[order[1]].ports.deliver("ds", RPC_STORE, world.submission)
        with Recorder() as recorder:
            run(world.alice._retrieve_process(world.guid, 7))
        (delivery,) = world.alice.stats.deliveries
        assert delivery.payload == b"the payload" and delivery.publication_id == 7
        assert recorder.seen("source", order[0]) == ["anon"]  # asked first: a miss
        assert recorder.seen("source", order[1]) == ["anon"]
        assert world.ports.slept == [0.25]
        assert world.ports.calls == [("anon", RPC_ANON_FORWARD)] * 2

    def test_transport_error_consumes_a_retry(self, world):
        order = world.cluster.rs_replicas(world.guid)
        for rs in world.replicas.values():
            rs.ports.deliver("ds", RPC_STORE, world.submission)
        world.ports.call_failures = [TransportError("timed out"), TransportError("timed out")]
        with Recorder() as recorder:
            run(world.alice._retrieve_process(world.guid, 1))
        assert len(world.alice.stats.deliveries) == 1
        assert len(world.ports.calls) == 3 and world.ports.slept == [0.25, 0.25]
        # attempts 0 and 1 never arrived; attempt 2 wrapped round to replica 0
        assert recorder.seen("source", order[0]) == ["anon"]
        assert recorder.seen("source", order[1]) == []

    def test_budget_exhausted_is_a_failed_fetch(self, world):
        world.ports.call_failures = [TransportError("x")] * 4
        run(world.alice._retrieve_process(world.guid, 1))
        assert world.alice.stats.failed_fetches == 1
        assert len(world.ports.calls) == 4 and world.alice.stats.deliveries == []

    def test_hostile_items_are_counted_not_raised(self, world, group):
        """A mislabelled leaf used to escape as a bare ``KeyError`` and a
        truncated item as a ``SerializationError``, killing the handler."""
        good = world.submission.ciphertext
        head, tail = good.rsplit(b"\x03org", 1)  # the leaf label; the policy text comes first
        mislabelled = head + b"\x03zzz" + tail
        assert b"\x03org" in head
        items = {b"\x01" * 16: mislabelled, b"\x02" * 16: good[: len(good) // 2], world.guid: good}
        for guid, ciphertext in items.items():
            for rs in world.replicas.values():
                rs.ports.deliver("ds", RPC_STORE, PayloadSubmission(guid, ciphertext, 60.0))
        for publication_id, guid in enumerate(items):
            run(world.alice._retrieve_process(guid, publication_id))
        assert world.alice.stats.access_denied == 2 and world.alice.stats.failed_fetches == 0
        (delivery,) = world.alice.stats.deliveries
        assert delivery.payload == b"the payload" and delivery.publication_id == 2

    def test_duplicate_broadcast_is_suppressed_by_guid(self, world, group, ara):
        for rs in world.replicas.values():
            rs.ports.deliver("ds", RPC_STORE, world.submission)
        alice = world.alice
        hve = HVE(group)
        master_key, _ = ara.provision_pbe_ts()
        interest = Interest({"topic": "a"})
        alice.tokens.append(
            (interest, hve.gen_token(master_key, SCHEMA.encode_interest(interest)))
        )
        envelope = EncryptedMetadata(
            hve_bytes=encrypt_metadata_envelope(
                hve, group, world.publisher.hve_public_key, SCHEMA, {"topic": "a", "prio": "hi"}, world.guid
            ),
            publication_id=3,
        )
        delivered = []
        alice.on_payload = delivered.append
        run(alice._match_process(envelope))
        world.ports.clock = 4.5
        run(alice._match_process(envelope))
        assert len(delivered) == 1 and alice.stats.matches == 2
        assert alice.stats.duplicates_suppressed == 1
        assert alice.stats.duplicate_suppressed_at == [4.5]

    def test_hostile_metadata_frames_are_counted_not_raised(self, world, group, ara):
        for rs in world.replicas.values():
            rs.ports.deliver("ds", RPC_STORE, world.submission)
        alice = world.alice
        hve = HVE(group)
        master_key, _ = ara.provision_pbe_ts()
        interest = Interest({"topic": "a"})
        alice.tokens.append(
            (interest, hve.gen_token(master_key, SCHEMA.encode_interest(interest)))
        )
        valid = encrypt_metadata_envelope(
            hve, group, world.publisher.hve_public_key, SCHEMA, {"topic": "a", "prio": "hi"}, world.guid
        )
        obs = Observability()
        with obs.installed():
            for envelope in _hostile_metadata(group, valid):
                run(alice._match_process(envelope))
        assert obs.metrics.counter_total("op.subscriber.metadata_rejected") == 3
        assert alice.stats.metadata_seen == 3 and alice.stats.matches == 0
        run(alice._match_process(EncryptedMetadata(valid, publication_id=3)))
        (delivery,) = alice.stats.deliveries
        assert delivery.payload == b"the payload" and delivery.publication_id == 3

    def test_token_registration_reaches_every_ds_shard(self, world, group, ara):
        alice = world.alice
        alice.delegate_tokens = True
        master_key, _ = ara.provision_pbe_ts()
        token = HVE(group).gen_token(
            master_key, SCHEMA.encode_interest(Interest({"topic": "b"}))
        )
        run(alice._register_with_ds(token, KIND_TOKEN_REG))
        assert world.ports.sent(frames.PUBLISH) == ["ds0", "ds1"]
        alice.delegate_tokens = False
        run(alice._register_with_ds(token, KIND_TOKEN_REG))
        assert len(world.ports.sent(frames.PUBLISH)) == 2  # local matching tells no one
