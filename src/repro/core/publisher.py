"""The P3S publisher client library.

Implements the publication protocol of §4.3 (Fig. 4) on top of the JMS
client: for each publication the publisher

1. draws a fresh unguessable GUID,
2. PBE-encrypts the GUID under the item's metadata and publishes it to
   the DS (which fans it out to every subscriber),
3. CP-ABE-encrypts the 2-tuple ``(GUID, payload)`` under an access policy
   and sends ``(GUID, ciphertext, TTL_item)`` to the DS (which forwards
   it to the RS).

The publisher never learns whether the item matched anyone, nor who
received it (§6.1).

:class:`PublisherProtocol` is that sequence, written once against the
ports of the JMS connection beneath it (:mod:`repro.net.ports`,
:mod:`repro.mq.client`); :class:`Publisher` is its simulator face
(``publish`` hands back the record at once),
:class:`repro.live.clients.LivePublisher` its asyncio one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..abe.policy import PolicyNode
from ..abe.serialize import serialize_hybrid
from ..crypto.group import PairingGroup
from ..mq.client import JmsConnection
from ..obs import hooks as obs
from ..pbe.serialize import serialize_hve_ciphertext
from .ara import PublisherCredentials
from .client import P3SClient
from .config import ComputeTimings
from .guid import random_guid
from .messages import (
    KIND_METADATA,
    KIND_PAYLOAD,
    PUBLISH_TOPIC,
    EncryptedMetadata,
    PayloadSubmission,
)

__all__ = [
    "Publisher",
    "PublisherProtocol",
    "PublicationRecord",
    "encrypt_metadata_envelope",
    "encrypt_payload_ciphertext",
]


def encrypt_metadata_envelope(hve, group, hve_public_key, schema, metadata, guid):
    """Steps 1–2 of §4.3: PBE-encrypt the GUID under the item's metadata.

    Returns the serialized HVE ciphertext bytes.
    """
    attribute_vector = schema.encode_metadata(metadata)
    hve_ciphertext = hve.encrypt(hve_public_key, attribute_vector, guid)
    return serialize_hve_ciphertext(group, hve_ciphertext)


def encrypt_payload_ciphertext(cpabe, group, cpabe_public_key, guid, payload, policy):
    """Step 3 of §4.3: CP-ABE-encrypt the 2-tuple (GUID, payload).

    Returns the serialized hybrid ciphertext bytes.
    """
    hybrid = cpabe.encrypt(cpabe_public_key, guid + payload, policy)
    return serialize_hybrid(group, hybrid)


@dataclass
class PublicationRecord:
    """What the publisher knows about one of its own publications."""

    publication_id: int
    guid: bytes
    metadata: dict[str, str]
    policy: str | PolicyNode
    ttl_s: float
    submitted_at: float = 0.0
    metadata_bytes: int = 0
    payload_bytes: int = 0
    headers: dict = field(default_factory=dict)


class PublisherProtocol(P3SClient):
    """One P3S publisher endpoint: the §4.3 publication sequence."""

    _publication_ids = itertools.count(1)

    def __init__(
        self,
        credentials: PublisherCredentials,
        connection: JmsConnection,
        group: PairingGroup,
        timings: ComputeTimings,
        reliable_publish: bool = False,
    ):
        super().__init__(credentials, connection, group, timings, PUBLISH_TOPIC)
        # wait for the broker's PUBACK and retransmit on silence (the
        # docs/CHAOS.md publish-path gap, closed).  Opt-in like the
        # subscriber's call_timeout_s: on the simulator the ack timeout
        # is a non-daemon event, so it holds loss-free runs open past
        # quiescence.
        self.reliable_publish = reliable_publish
        self.published: list[PublicationRecord] = []

    def publish(
        self,
        metadata: dict[str, str],
        payload: bytes,
        policy: str | PolicyNode,
        ttl_s: float = 3600.0,
    ):
        """Publish one item; what the substrate's driver returns resolves
        to the :class:`PublicationRecord` once both frames are sent."""
        record = PublicationRecord(
            publication_id=next(self._publication_ids),
            guid=random_guid(),
            metadata=dict(metadata),
            policy=policy,
            ttl_s=ttl_s,
        )
        self.published.append(record)
        return self.ports.drive(self._publish_process(record, payload))

    # -- the §4.3 publication protocol ------------------------------------------

    def _publish_process(self, record: PublicationRecord, payload: bytes):
        record.submitted_at = self.ports.now()
        schema = self.credentials.schema
        # both frames of one publication go to the DS shard owning its GUID
        broker = self.directory.cluster.ds_owner(record.guid)
        root = obs.start_span(
            "publish",
            component=self.name,
            publication_id=record.publication_id,
        )

        # Step 1-2: PBE-encrypt the GUID under the metadata, send to DS.
        step = obs.start_span("pbe.encrypt", component=self.name, parent=root)
        yield self.ports.compute(self.timings.pbe_encrypt)
        with obs.attach(step):
            hve_bytes = encrypt_metadata_envelope(
                self.hve,
                self.group,
                self.credentials.hve_public_key,
                schema,
                record.metadata,
                record.guid,
            )
        record.metadata_bytes = len(hve_bytes)
        obs.end_span(step, bytes=record.metadata_bytes)
        envelope = EncryptedMetadata(hve_bytes=hve_bytes, publication_id=record.publication_id)
        yield self._send_to_ds(
            envelope,
            envelope.wire_size,
            obs.inject({"p3s-kind": KIND_METADATA}, root),
            broker,
        )

        # Step 3: CP-ABE-encrypt (GUID, payload) under the policy, send to DS→RS.
        step = obs.start_span("abe.encrypt", component=self.name, parent=root)
        yield self.ports.compute(
            self.timings.cpabe_encrypt + self.timings.symmetric(len(payload))
        )
        with obs.attach(step):
            ciphertext = encrypt_payload_ciphertext(
                self.cpabe,
                self.group,
                self.credentials.cpabe_public_key,
                record.guid,
                payload,
                record.policy,
            )
        record.payload_bytes = len(ciphertext)
        obs.end_span(step, bytes=record.payload_bytes)
        submission = PayloadSubmission(
            guid=record.guid, ciphertext=ciphertext, ttl_s=record.ttl_s
        )
        yield self._send_to_ds(
            submission,
            submission.wire_size,
            obs.inject({"p3s-kind": KIND_PAYLOAD}, root),
            broker,
        )
        obs.end_span(root)
        return record


class Publisher(PublisherProtocol):
    """A publisher on the simulator, beneath the JMS client API (§5)."""

    def publish(
        self,
        metadata: dict[str, str],
        payload: bytes,
        policy: str | PolicyNode,
        ttl_s: float = 3600.0,
    ) -> PublicationRecord:
        """Publish one item; returns its record immediately.

        Encryption and transmission run as a simulator process; the
        record's ``submitted_at`` is stamped when the process starts.
        """
        super().publish(metadata, payload, policy, ttl_s)
        return self.published[-1]
