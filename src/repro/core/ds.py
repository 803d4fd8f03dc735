"""Dissemination Server (DS): the P3S-extended message broker.

Paper §4.1 and §5: the DS is "implemented by extending the AMQ broker".
It keeps TLS tunnels to publishers and subscribers, receives
PBE-encrypted metadata and CP-ABE-encrypted payloads from publishers,
**fans the encrypted metadata out to every registered subscriber** (the
matching happens at the subscribers — the DS cannot match, which is the
point), and forwards the encrypted payload to the RS for storage.

The DS sees only: ciphertext sizes, per-publisher publication rates, and
who is connected — exactly the §6.1 visibility summary; counters exposing
that view feed the privacy analysis.

Extension (paper §6.2: "this issue can be addressed by reconfiguring the
P3S architecture to use hierarchical dissemination"): the analytic model
in :func:`repro.perf.throughput.p3s_throughput` takes a ``relay_fanout``
parameter that moves the metadata fan-out off the DS egress and onto a
k-ary relay tree; ``benchmarks/bench_ext_hierarchical.py`` quantifies it.

Second extension — **delegated matching** (opt-in via
:attr:`P3SConfig.delegated_matching`): subscribers may hand their
serialized PBE tokens to the DS (``KIND_TOKEN_REG`` frames), which then
evaluates each publication against the registered tokens through a
:class:`repro.par.MatchPool` and narrows the fan-out to the matching
subscribers (subscribers with no registered tokens still get the full
broadcast).  This deliberately trades interest privacy at the DS — the
DS learns which subscribers match which publications, the exposure the
baseline architecture exists to avoid — for fan-out bandwidth, and is
the natural host for the parallel matching hot path.  Delivery *sets*
are unchanged: matched subscribers re-run the same local match, so a
delegated deployment delivers byte-identical payloads to the broadcast
one (``tests/par/test_equivalence.py``).

Every DS rule is written once, against a substrate ports object
(:mod:`repro.net.ports`): ``DisseminationServer(host, ...)`` serves them
on a simulator host, and
:class:`repro.live.services.LiveDisseminationServer` is the same class
behind an asyncio listener.
"""

from __future__ import annotations

from collections import defaultdict

from ..cluster.router import ClusterMap
from ..errors import ReproError
from ..mq.broker import Broker
from ..mq.messages import JmsFrame
from ..obs import hooks as obs
from ..par import MatchPool
from ..pbe.serialize import deserialize_hve_token
from ..store import MemoryEngine, StorageEngine
from ..store.codec import (
    NS_SUBS,
    NS_TOKENS,
    decode_sub_key,
    decode_token,
    encode_token,
    sub_key,
    token_key,
)
from .config import ComputeTimings
from .messages import (
    METADATA_TOPIC,
    KIND_METADATA,
    KIND_PAYLOAD,
    KIND_TOKEN_REG,
    KIND_TOKEN_UNREG,
    RPC_STORE,
    PayloadSubmission,
)
from .sightings import opened

__all__ = ["DisseminationServer"]


class DisseminationServer(Broker):
    """The DS: a topic broker with P3S publication handling grafted on.

    ``group``/``vector_length``/``timings``/``match_workers`` enable
    delegated matching (the plan's only then); without a ``group`` the DS
    refuses token frames unopened and always broadcasts.
    """

    def __init__(
        self,
        ports,
        cluster: ClusterMap,
        group=None,
        vector_length: int | None = None,
        timings: ComputeTimings | None = None,
        match_workers: int = 0,
        store: StorageEngine | None = None,
    ):
        super().__init__(ports)
        # shared by reference through the ServiceDirectory: a payload
        # goes to its GUID's RS replica set
        self.cluster = cluster
        self.group = group
        self.vector_length = vector_length
        self.timings = timings
        self.match_workers = match_workers
        # Delegated-matching registry: (subscriber name, serialized token).
        # In-process state is lost on crash, like subscriptions; both
        # write through to the store engine, so with a durable backend
        # restart() recovers them instead of waiting for re-registration.
        self.store = store if store is not None else MemoryEngine()
        self.registered_tokens: list[tuple[str, bytes]] = []
        self._match_pool: MatchPool | None = None
        self.recovered_registrations = 0
        if self.store.durable:
            self.recovered_registrations = self.recover_registrations()
        # HBC-observable state (§6.1: "the DS knows the per-publisher
        # publication rate and number of items published by each publisher";
        # the frame sizes it sees are reported as sightings, never kept).
        self.publications_by_publisher: dict[str, int] = defaultdict(int)

    def on_publish(self, src: str, frame: JmsFrame):
        kind = frame.headers.get("p3s-kind")
        if kind == KIND_METADATA:
            self.publications_by_publisher[src] += 1
            opened(self.name, "frame", (KIND_METADATA, frame.body_size))
            if self.registered_tokens:
                # an activity of its own: matching takes time, and the
                # DS keeps serving frames meanwhile
                self.ports.spawn(self._delegated_fan_out(frame))
            else:
                # forward PBE-encrypted metadata to ALL registered subscribers
                with obs.span(
                    "ds.fan_out",
                    component=self.name,
                    parent=obs.extract(frame.headers),
                    subscribers=self.registered_subscriber_count,
                ) as span:
                    # re-parent the propagated context so each subscriber's
                    # match span hangs off this fan-out hop
                    obs.inject(frame.headers, span)
                    yield from self.fan_out(METADATA_TOPIC, frame)
        elif kind == KIND_PAYLOAD:
            opened(self.name, "frame", (KIND_PAYLOAD, frame.body_size))
            yield from self._forward_to_rs(frame)
        elif kind in (KIND_TOKEN_REG, KIND_TOKEN_UNREG) and self.group is None:
            obs.record_op("ds.token_rejected")  # no matcher: refused unopened
        elif kind == KIND_TOKEN_REG:
            self.register_token(src, frame.body)
        elif kind == KIND_TOKEN_UNREG:
            self.unregister_token(src, frame.body)
        else:
            # plain JMS traffic keeps working unchanged (§5: the top-level
            # JMS interface is retained)
            yield from self.fan_out(frame.topic, frame)

    # -- durable registrations -------------------------------------------------

    def recover_registrations(self) -> int:
        """Reload token registrations and subscriptions from the store.

        Registration order is not persisted (engine iteration order is
        key order); delivery sets do not depend on it — matched fan-out
        iterates the subscription table, and a re-registering client
        lands in the same slots it would have re-earned.  Recovered
        subscribers whose connections died with the old process simply
        drop deliveries until they redial.
        """
        recovered = 0
        for _key, value in self.store.items(NS_TOKENS):
            entry = decode_token(value)
            if entry not in self.registered_tokens and self._admissible(entry[1]):
                self.registered_tokens.append(entry)
                recovered += 1
        for key, _value in self.store.items(NS_SUBS):
            topic, client = decode_sub_key(key)
            if client not in self.subscriptions[topic]:
                self.subscriptions[topic].append(client)
                recovered += 1
        if self.registered_tokens:
            self._commit_to_delegated_matching()
        return recovered

    # -- delegated matching ---------------------------------------------------

    def _admissible(self, token_bytes: bytes) -> bool:
        """Whether the matcher can be handed these bytes: they are a
        connected client's to choose, and one token that fails inside
        ``MatchPool.match_indices`` fails the whole batch — every
        subscriber's delivery, for every later publication.  A token
        must decode, be for this deployment's vector length (the ``n``
        of every ciphertext the DS relays) and index it in strictly
        increasing positions below ``n``.  Anything else — and every token,
        on a DS without a matcher — is counted and dropped at the door."""
        token = None
        try:
            if self.group is not None:
                token = deserialize_hve_token(self.group, token_bytes)
        except ReproError:
            pass
        if token is not None and token.n == self.vector_length and all(
            previous < position < token.n
            for previous, position in zip((-1, *token.positions), token.positions)
        ):
            return True
        obs.record_op("ds.token_rejected")
        return False

    def register_token(self, src: str, token_bytes: bytes) -> None:
        entry = (src, bytes(token_bytes))
        opened(self.name, "token", entry)
        if entry not in self.registered_tokens and self._admissible(entry[1]):
            self.registered_tokens.append(entry)
            self.store.put(
                NS_TOKENS, token_key(src, entry[1]), encode_token(src, entry[1])
            )
            self._commit_to_delegated_matching()

    def _commit_to_delegated_matching(self) -> None:
        """A registered (or recovered) token commits the DS to delegated
        matching, so the pool exists from here on: readiness
        (``match_pool_warm``) must not wait for a first publication — a
        readiness-gated deployment would never send one."""
        self.match_pool

    def unregister_token(self, src: str, token_bytes: bytes) -> None:
        entry = (src, bytes(token_bytes))
        if entry in self.registered_tokens:
            self.registered_tokens.remove(entry)
            self.store.delete(NS_TOKENS, token_key(src, entry[1]))

    # -- durable subscription table --------------------------------------------

    def _subscribe(self, client: str, topic: str) -> None:
        super()._subscribe(client, topic)
        self.store.put(NS_SUBS, sub_key(topic, client), b"")

    @property
    def match_pool(self) -> MatchPool:
        if self._match_pool is None:
            self._match_pool = MatchPool(self.group, workers=self.match_workers)
        return self._match_pool

    def _delegated_fan_out(self, frame: JmsFrame):
        """Match the publication against registered tokens, then fan out
        only to matching (or token-less) subscribers, in subscription
        order.  Modelled compute time is the pool makespan: the distinct
        tokens (the pool evaluates byte-equal registrations once) split
        across the lanes the pool matches them on, at ``pbe_match`` per
        evaluation."""
        tokens = list(self.registered_tokens)
        envelope = frame.body
        span = obs.start_span(
            "ds.delegated_fan_out",
            component=self.name,
            parent=obs.extract(frame.headers),
            tokens=len(tokens),
        )
        pool = self.match_pool
        distinct = len({token for _, token in tokens})
        if self.timings is not None:
            makespan = -(-distinct // pool.lanes(distinct))  # ceil
            yield self.ports.compute(makespan * self.timings.pbe_match)
        try:
            matched = yield self.ports.offload(
                pool.match_indices,
                envelope.hve_bytes,
                [token for _, token in tokens],
                span=span,
            )
        except ReproError:
            # a publisher's bytes no partition could decode: counted and
            # dropped, as a subscriber drops them under broadcast
            obs.record_op("ds.metadata_rejected")
            obs.end_span(span, status="refused")
            return
        matched_names = {tokens[index][0] for index in matched}
        token_holders = {name for name, _ in tokens}
        delivery = self.delivery_frame(METADATA_TOPIC, frame)
        obs.inject(delivery.headers, span)
        skipped = 0
        for client in list(self.subscriptions[METADATA_TOPIC]):
            # token holders are pre-filtered; everyone else still gets the
            # baseline broadcast
            if client in token_holders and client not in matched_names:
                skipped += 1
                continue
            yield from self.deliver_to(client, delivery)
        obs.end_span(span, matched=len(matched_names), skipped=skipped)

    def close_match_pool(self) -> None:
        if self._match_pool is not None:
            self._match_pool.close()
            self._match_pool = None

    def crash(self) -> None:
        """In-process registrations die with the process; a durable
        store engine (the "disk") keeps its copy for restart()."""
        super().crash()
        self.registered_tokens.clear()
        self.close_match_pool()

    def restart(self) -> None:
        """With a durable store the DS does *not* need to wait for
        re-registration (the §6.1 restart cost the persistence layer
        removes); with the memory engine the old semantics hold."""
        super().restart()
        if self.store.durable:
            self.recovered_registrations = self.recover_registrations()

    def _rs_targets(self, guid: bytes) -> tuple[str, ...]:
        """The RS shards this payload is written to (the replica set)."""
        return self.cluster.rs_replicas(guid)

    def _forward_to_rs(self, frame: JmsFrame):
        submission: PayloadSubmission = frame.body
        targets = self._rs_targets(submission.guid)
        with obs.span(
            "ds.forward_rs",
            component=self.name,
            parent=obs.extract(frame.headers),
            replicas=len(targets),
        ) as span:
            for rs_name in targets:
                yield self.ports.cast(
                    rs_name,
                    RPC_STORE,
                    submission,
                    submission.wire_size,
                    headers=obs.inject({}, span),
                )

    @property
    def registered_subscriber_count(self) -> int:
        return self.subscriber_count(METADATA_TOPIC)
