"""The P3S subscriber client library.

Implements the subscription (Fig. 3) and retrieval (Fig. 4, bottom half)
protocols:

* **Subscription** — generate a symmetric key ``K_s``, PKE-encrypt
  ``(K_s, subscriber certificate, plaintext predicate)`` to the PBE-TS,
  send it via the anonymization service, and unseal the returned PBE
  token with ``K_s``.  The interest never leaves the subscriber except
  inside that encrypted request.
* **Local matching** — every PBE-encrypted metadata broadcast from the DS
  is tested against the subscriber's tokens *locally*; a match reveals
  exactly the GUID and nothing else about the metadata.
* **Retrieval** — PKE-encrypt ``(K_s, GUID)`` to the RS, send via the
  anonymizer, unseal the CP-ABE ciphertext, and decrypt it iff this
  subscriber's CP-ABE attributes satisfy the publisher's policy.  The
  recovered GUID is compared with the requested one to correlate
  request and response (§4.3).

:class:`SubscriberProtocol` is all three, written once against the
ports of the JMS connection beneath it (:mod:`repro.net.ports`,
:mod:`repro.mq.client`); :class:`Subscriber` is its simulator face (it
adds crash/restart), :class:`repro.live.clients.LiveSubscriber` its
asyncio one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from ..abe.serialize import deserialize_hybrid
from ..crypto.group import PairingGroup
from ..crypto.symmetric import SecretBox
from ..errors import (
    DecryptionError,
    GuidMismatchError,
    ReproError,
    RetrievalError,
    SerializationError,
    TokenRequestError,
    TransportError,
)
from ..mq.client import JmsConnection
from ..obs import hooks as obs
from ..pbe.hve import HVEToken
from ..pbe.schema import Interest
from ..pbe.serialize import (
    deserialize_hve_ciphertext,
    deserialize_hve_token,
    serialize_hve_token,
)
from .ara import SubscriberCredentials
from .client import P3SClient
from .config import ComputeTimings
from .guid import GUID_BYTES
from .messages import (
    METADATA_TOPIC,
    KIND_TOKEN_REG,
    KIND_TOKEN_UNREG,
    RPC_ANON_FORWARD,
    RPC_RETRIEVE,
    RPC_TOKEN_REQUEST,
    AnonEnvelope,
    EncryptedMetadata,
)
from .pbe_ts import decode_token_response, encode_token_request
from .rs import decode_retrieval_response, encode_retrieval_request

__all__ = [
    "Subscriber",
    "SubscriberProtocol",
    "Delivery",
    "GuidDeduper",
    "SubscriberStats",
    "open_delivery",
]


class GuidDeduper:
    """Bounded memory of GUIDs already matched, for duplicate suppression.

    A retransmitted (or chaos-duplicated) metadata frame matches the
    same token again and would re-run the whole retrieve→decrypt→deliver
    pipeline, handing the application the same payload twice.  GUIDs are
    unique per publication, so remembering which ones this subscriber
    already acted on makes delivery idempotent at the match boundary.
    The memory is bounded (FIFO eviction) so a long-lived subscriber
    cannot grow it without limit; the window only needs to outlast the
    network's duplicate horizon, not the subscriber's lifetime.
    """

    CAPACITY = 4096  # GUIDs remembered

    def __init__(self):
        self._seen: set[bytes] = set()
        self._order: deque[bytes] = deque()

    def seen(self, guid: bytes) -> bool:
        """Record ``guid``; True when it was already present (a duplicate)."""
        if guid in self._seen:
            return True
        self._seen.add(guid)
        self._order.append(guid)
        if len(self._order) > self.CAPACITY:
            self._seen.discard(self._order.popleft())
        return False


def open_delivery(cpabe, group, secret_key, guid, ciphertext_bytes):
    """CP-ABE-decrypt one retrieved payload and verify its embedded GUID.

    Returns the application payload.  Raises :class:`DecryptionError`
    when the subscriber's attributes do not satisfy the policy,
    :class:`SerializationError` when the bytes are not a CP-ABE item at
    all, and :class:`GuidMismatchError` when decryption succeeds but the
    recovered GUID differs from the requested one (§4.3 correlation check).
    """
    plaintext = cpabe.decrypt(secret_key, deserialize_hybrid(group, ciphertext_bytes))
    recovered_guid, payload = plaintext[:GUID_BYTES], plaintext[GUID_BYTES:]
    if recovered_guid != guid:
        raise GuidMismatchError("recovered GUID does not match the requested one")
    return payload


@dataclass(frozen=True)
class Delivery:
    """One payload delivered to the application."""

    publication_id: int
    guid: bytes
    payload: bytes
    delivered_at: float


@dataclass
class SubscriberStats:
    """Counters for everything a subscriber observes."""

    metadata_seen: int = 0
    matches: int = 0
    non_matches: int = 0
    failed_fetches: int = 0  # expired / unknown GUID at the RS
    access_denied: int = 0  # CP-ABE attributes insufficient, or the item undecodable
    duplicates_suppressed: int = 0  # retransmitted frames dropped by GUID dedup
    # simulated times of each suppression — the chaos SLO engine turns
    # these into delivery-integrity events at their exact instants
    duplicate_suppressed_at: list[float] = field(default_factory=list)
    deliveries: list[Delivery] = field(default_factory=list)


class SubscriberProtocol(P3SClient):
    """One P3S subscriber endpoint: subscription, local matching,
    retrieval."""

    # Retrieval retries cover the protocol's inherent race (a fast
    # matcher can ask before the DS→RS content submission lands) and a
    # dead RS replica; each waits RETRY_DELAY_S first.
    RETRIEVAL_RETRIES = 3
    RETRY_DELAY_S = 0.25

    def __init__(
        self,
        credentials: SubscriberCredentials,
        connection: JmsConnection,
        group: PairingGroup,
        timings: ComputeTimings,
        use_anonymizer: bool = True,
        on_payload: Callable[[Delivery], None] | None = None,
        local_token_source=None,
        delegate_tokens: bool = False,
    ):
        super().__init__(credentials, connection, group, timings, METADATA_TOPIC)
        self.use_anonymizer = use_anonymizer
        self.on_payload = on_payload
        self.local_token_source = local_token_source
        self.retrieval_retries = self.RETRIEVAL_RETRIES
        self.retry_delay_s = self.RETRY_DELAY_S
        # Bound on each anonymized RPC round trip.  None is the
        # substrate's own: forever on the simulator — correct on a
        # lossless network — and the endpoint's deadline on live TCP.
        # Chaos runs set it so a dropped request/response frame surfaces
        # as a TransportError and consumes a retry instead of wedging
        # the retrieval process.
        self.call_timeout_s: float | None = None
        self._dedup: GuidDeduper | None = GuidDeduper()
        # Delegated matching (opt-in, privacy trade-off — see
        # repro.core.ds): hand each minted token to the DS so it can
        # pre-filter the metadata fan-out.  Local matching still runs on
        # everything delivered, so behaviour is unchanged.
        self.delegate_tokens = delegate_tokens
        self.stats = SubscriberStats()
        self.tokens: list[tuple[Interest, HVEToken]] = []

    def _start_process(self):
        session = yield from super()._start_process()
        consumer = session.create_consumer(METADATA_TOPIC)
        yield consumer.set_message_listener(self._on_metadata)

    def _on_metadata(self, frame) -> None:
        self.ports.spawn(self._match_process(frame.body, obs.extract(frame.headers)))

    # -- subscription (Fig. 3) -------------------------------------------------

    def subscribe(self, interest: Interest):
        """Obtain a PBE token for ``interest``; what the substrate's
        driver returns resolves to the token."""
        return self.ports.drive(self._subscribe_process(interest))

    def _subscribe_process(self, interest: Interest):
        root = obs.start_span("subscribe", component=self.name)
        if self.local_token_source is not None:
            # §8 future-work configuration: mint the token locally — the
            # plaintext predicate never leaves the subscriber.
            yield self.ports.compute(self.timings.pbe_token_gen)
            with obs.attach(root):
                token = self.local_token_source.gen_token(interest)
            yield from self._hold(interest, token)
            obs.end_span(root, local=True)
            return token
        session_key = SecretBox.generate_key()
        with obs.attach(root):
            body = encode_token_request(
                session_key, self.credentials.certificate, interest, self.group.zr_bytes
            )
        yield self.ports.compute(self.timings.pke_op)
        request = self.directory.pbe_ts_public_key.encrypt(body)
        sealed = yield self._anonymized_call(
            self.directory.pbe_ts_name, RPC_TOKEN_REQUEST, request, span=root
        )
        yield self.ports.compute(self.timings.symmetric(len(sealed)))
        try:
            token_bytes = decode_token_response(session_key, sealed)
        except (TokenRequestError, DecryptionError) as exc:
            obs.end_span(root, status="refused")
            raise TokenRequestError(f"{self.name}: token request failed: {exc}") from exc
        token = deserialize_hve_token(self.group, token_bytes)
        yield from self._hold(interest, token)
        obs.end_span(root, status="ok")
        return token

    def _hold(self, interest: Interest, token: HVEToken):
        """Keep ``token`` as the one token for ``interest``: a re-subscription
        first drops the token (and DS registration) held for it."""
        yield from self._unsubscribe_process(interest)
        self.tokens.append((interest, token))
        yield from self._register_with_ds(token, KIND_TOKEN_REG)

    def _register_with_ds(self, token: HVEToken, kind: str):
        if not self.delegate_tokens:
            return
        data = serialize_hve_token(self.group, token)
        # every DS shard may own the next publication, so the token must
        # be registered on all of them (matching compute per publication
        # still lands on exactly one shard — that is what scales)
        for broker in tuple(self.connection.broker_names):
            yield self._send_to_ds(data, len(data), {"p3s-kind": kind}, broker)

    def unsubscribe(self, interest: Interest):
        """Drop the local token for ``interest``.

        With local matching, unsubscribing is purely client-side: the
        token is discarded and future broadcasts stop matching.  (No party
        needs to be told — another consequence of interest privacy.)
        Under delegated matching the DS registration is withdrawn too.
        Returns whether a token was found and removed — at once on the
        simulator (a cast is a scheduled send, there is nothing to wait
        for), as an awaitable on asyncio.
        """
        return self.ports.finish(self._unsubscribe_process(interest))

    def _unsubscribe_process(self, interest: Interest):
        for index, (held, token) in enumerate(self.tokens):
            if held.constraints == interest.constraints:
                del self.tokens[index]
                yield from self._register_with_ds(token, KIND_TOKEN_UNREG)
                return True
        return False

    # -- metadata matching (local, on every DS broadcast) -----------------------

    def _match_process(self, envelope: EncryptedMetadata, parent=None):
        self.stats.metadata_seen += 1
        span = obs.start_span(
            "subscriber.match",
            component=self.name,
            parent=parent,
            publication_id=envelope.publication_id,
        )
        with obs.attach(span):
            try:
                ciphertext = deserialize_hve_ciphertext(
                    self.group, envelope.hve_bytes, self.credentials.schema.vector_length
                )
            except ReproError:
                # a publisher's bytes, not a protocol fault: counted and dropped
                obs.record_op("subscriber.metadata_rejected")
                obs.end_span(span, status="refused")
                return
        guid = None
        attempts = 0
        for _, token in self.tokens:
            yield self.ports.compute(self.timings.pbe_match)
            attempts += 1
            with obs.attach(span):
                guid = self.hve.query(token, ciphertext)
            if guid is not None:
                break
        obs.end_span(span, matched=guid is not None, attempts=attempts)
        if guid is None:
            self.stats.non_matches += 1
            return
        self.stats.matches += 1
        if self._dedup is not None and self._dedup.seen(guid):
            # retransmitted metadata frame: the pipeline already ran (or
            # is running) for this GUID — deliver-at-most-once holds here
            self.stats.duplicates_suppressed += 1
            self.stats.duplicate_suppressed_at.append(self.ports.now())
            return
        yield from self._retrieve_process(guid, envelope.publication_id, parent=span)

    # -- retrieval (Fig. 4) ------------------------------------------------------

    def _retrieve_process(self, guid: bytes, publication_id: int, parent=None):
        # Retries cover the protocol's inherent race: a fast matcher can
        # request a payload before the DS→RS content submission lands
        # (the paper's t_f/t_b decomposition takes max() for this reason).
        span = obs.start_span(
            "subscriber.retrieve",
            component=self.name,
            parent=parent,
            publication_id=publication_id,
        )
        ciphertext_bytes = None
        attempt = 0
        # the GUID's RS replica set: retries rotate through it, so a
        # dead or partitioned replica costs one retry, not the item
        cluster = self.directory.cluster
        replicas = cluster.rs_replicas(guid)
        for attempt in range(self.retrieval_retries + 1):
            if attempt:
                yield self.ports.sleep(self.retry_delay_s)
            rs_name = replicas[attempt % len(replicas)]
            session_key = SecretBox.generate_key()
            body = encode_retrieval_request(session_key, guid)
            yield self.ports.compute(self.timings.pke_op)
            request = cluster.rs_public_keys[rs_name].encrypt(body)
            try:
                sealed = yield self._anonymized_call(
                    rs_name, RPC_RETRIEVE, request, span=span
                )
            except TransportError:
                # lost request or response (the call timed out): the
                # same retry budget covers wire loss and the store race
                continue
            yield self.ports.compute(self.timings.symmetric(len(sealed)))
            try:
                ciphertext_bytes = decode_retrieval_response(session_key, sealed)
                break
            except (RetrievalError, DecryptionError):
                continue
        if ciphertext_bytes is None:
            self.stats.failed_fetches += 1
            obs.end_span(span, status="failed_fetch", attempts=attempt + 1)
            return
        step = obs.start_span("abe.decrypt", component=self.name, parent=span)
        yield self.ports.compute(
            self.timings.cpabe_decrypt + self.timings.symmetric(len(ciphertext_bytes))
        )
        try:
            with obs.attach(step):
                payload = open_delivery(
                    self.cpabe,
                    self.group,
                    self.credentials.cpabe_secret_key,
                    guid,
                    ciphertext_bytes,
                )
        except GuidMismatchError:
            self.stats.access_denied += 1  # treat as undecodable
            obs.end_span(step)
            obs.end_span(span, status="guid_mismatch", attempts=attempt + 1)
            return
        except SerializationError:
            # a truncated or otherwise malformed item: whoever stored it, it
            # must cost this subscriber one delivery, not its handler
            self.stats.access_denied += 1
            obs.end_span(step, status="undecodable")
            obs.end_span(span, status="undecodable", attempts=attempt + 1)
            return
        except DecryptionError:
            self.stats.access_denied += 1
            obs.end_span(step, status="denied")
            obs.end_span(span, status="access_denied", attempts=attempt + 1)
            return
        obs.end_span(step)
        delivery = Delivery(
            publication_id=publication_id,
            guid=guid,
            payload=payload,
            delivered_at=self.ports.now(),
        )
        self.stats.deliveries.append(delivery)
        obs.end_span(
            obs.start_span(
                "deliver",
                component=self.name,
                parent=span,
                publication_id=publication_id,
                bytes=len(payload),
            )
        )
        obs.end_span(span, status="delivered", attempts=attempt + 1)
        self._hand_over(delivery)

    def _hand_over(self, delivery: Delivery) -> None:
        """Give one decrypted payload to the application."""
        if self.on_payload is not None:
            self.on_payload(delivery)

    # -- transport helper ------------------------------------------------------------

    def _anonymized_call(self, dst: str, msg_type: str, request: bytes, span=None):
        size = len(request)
        if self.use_anonymizer and self.directory.anonymizer_name:
            request = AnonEnvelope(dst=dst, inner_type=msg_type, inner_payload=request)
            dst, msg_type = self.directory.anonymizer_name, RPC_ANON_FORWARD
            size = request.wire_size
        return self.ports.call(
            dst,
            msg_type,
            request,
            size,
            headers=obs.inject({}, span),
            timeout_s=self.call_timeout_s,
        )


class Subscriber(SubscriberProtocol):
    """A subscriber on the simulator, beneath the JMS client API (§5)."""

    # -- crash / restart (§6.1 robustness) ---------------------------------------

    def restart(self):
        """Simulate a subscriber crash + restart.

        "A restarted subscriber simply needs to (re)register with the DS
        and (re)obtain its PBE tokens from the PBE-TS" (§6.1).  Volatile
        state (tokens) is lost; the remembered interests are re-requested.
        Returns the list of re-subscription process events.
        """
        interests = [interest for interest, _ in self.tokens]
        self.tokens.clear()
        self.reconnect()
        return [self.subscribe(interest) for interest in interests]
