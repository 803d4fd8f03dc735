"""Attribute-Based Access Control and Registration Authority (ARA).

Paper §4.1/§4.3: the ARA "acts as the certification authority, and only
interacts with other components during registration".  It owns the CP-ABE
master key and the metadata schema, distributes the PBE public parameters
and service contact information, issues role certificates, and hands each
subscriber a CP-ABE secret key SK_C for its attributes.

The ARA is an *offline* trust root here (direct method calls rather than
simulated network traffic): the paper excludes it from both the privacy
analysis ("the ARA, which we assume to be a trusted certification
authority, is not part of the analysis", §6.1) and the performance models
(registration is not on the publish path).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..abe.bsw07 import CPABEMasterKey, CPABEPublicKey, CPABESecretKey
from ..abe.hybrid import HybridCPABE
from ..cluster.router import ClusterMap
from ..crypto.group import PairingGroup
from ..crypto.pke import PKEPublicKey
from ..crypto.randomness import draw_bytes
from ..crypto.signing import Certificate, SigningKeyPair, VerifyKey
from ..errors import RegistrationError
from ..pbe.hve import HVE, HVEMasterKey, HVEPublicKey
from ..pbe.schema import MetadataSchema

__all__ = [
    "ServiceDirectory",
    "SubscriberCredentials",
    "PublisherCredentials",
    "RegistrationAuthority",
    "SERVICE_KEY_CONTEXT",
    "TELEMETRY_CONTEXT",
]

# Domain-separation prefix for live-channel service-key signatures.
SERVICE_KEY_CONTEXT = b"p3s-live-service-key-v1:"
# ... and for the operator's telemetry requests, each naming its service.
TELEMETRY_CONTEXT = b"p3s-telemetry-request-v1:"


@dataclass
class ServiceDirectory:
    """Contact information + public keys for the P3S services (§4.3:
    "contact information for the P3S services ... and their public key
    certificates").

    ``cluster`` is the :class:`~repro.cluster.ClusterMap` that names every
    DS and RS shard and holds each RS shard's PKE public key; a
    single-node deployment's is the one-node map of ``"ds"`` and ``"rs"``
    (the default; :meth:`DeploymentPlan.derive` installs the config's).
    Credentials embed this directory by reference, so topology changes
    made through the map reach every client without re-registration.
    """

    cluster: ClusterMap = field(default_factory=lambda: ClusterMap(["ds"], ["rs"]))
    pbe_ts_name: str = ""
    anonymizer_name: str = ""
    pbe_ts_public_key: PKEPublicKey | None = None
    ara_verify_key: VerifyKey | None = None


@dataclass(frozen=True)
class SubscriberCredentials:
    """Everything Fig. 2 hands to a subscriber."""

    name: str
    schema: MetadataSchema
    directory: ServiceDirectory
    cpabe_secret_key: CPABESecretKey  # SK_C for the client's attributes
    certificate: Certificate  # role = "subscriber"


@dataclass(frozen=True)
class PublisherCredentials:
    """Everything Fig. 2 hands to a publisher."""

    name: str
    schema: MetadataSchema
    directory: ServiceDirectory
    cpabe_public_key: CPABEPublicKey  # PK_C used to encrypt payloads
    hve_public_key: HVEPublicKey  # PBE public parameters
    certificate: Certificate  # role = "publisher"


class RegistrationAuthority:
    """The ARA: trust root and key authority for one P3S deployment."""

    def __init__(self, group: PairingGroup, schema: MetadataSchema):
        self.group = group
        self.schema = schema
        self.directory = ServiceDirectory()
        self._signer = SigningKeyPair(group)
        self.directory.ara_verify_key = self._signer.verify_key

        self._cpabe = HybridCPABE(group)
        self._cpabe_public, self._cpabe_master = self._cpabe.setup()

        self._hve = HVE(group)
        self._hve_public, self._hve_master = self._hve.setup(schema.alphabet_sizes)

        self._registered: dict[str, str] = {}  # name -> role

    # -- service provisioning (deployment time) -----------------------------

    def install_service(
        self, role: str, name: str, public_key: PKEPublicKey | None = None
    ) -> None:
        """Record a singleton service's contact name (and PKE public key if
        it has one); DS and RS shards are named by the directory's map."""
        if role == "pbe_ts":
            self.directory.pbe_ts_name = name
            self.directory.pbe_ts_public_key = public_key
        elif role == "anonymizer":
            self.directory.anonymizer_name = name
        else:
            raise RegistrationError(f"unknown service role {role!r}")

    def provision_pbe_ts(self) -> tuple[HVEMasterKey, VerifyKey]:
        """Hand the PBE master key + certificate-verification key to the PBE-TS."""
        return self._hve_master, self._signer.verify_key

    def sign_service_key(self, name: str, key_bytes: bytes):
        """Sign a live service's channel key binding (``name ↔ PKE key``).

        The live TCP substrate (:mod:`repro.live`) authenticates servers
        during its channel handshake with exactly this signature: clients
        trust a (name, public key) pair iff it verifies under the ARA's
        verify key — the ARA-issued "public key certificates" of §4.3
        made concrete.
        """
        return self._signer.sign(SERVICE_KEY_CONTEXT + name.encode("utf-8") + key_bytes)

    def sign_telemetry_request(self, service: str):
        """The operator's credential for one telemetry request to ``service``.

        A live service hands its snapshot — spans that name subscribers,
        per-peer byte counts, the flight-recorder drain — only to a
        request carrying this signature over its own name, checked with
        the ARA verify key it already holds for channel handshakes.  Bound
        to the name, one service cannot replay it to another.
        """
        return self._signer.sign(TELEMETRY_CONTEXT + service.encode("utf-8"))

    @property
    def cpabe_public_key(self) -> CPABEPublicKey:
        return self._cpabe_public

    @property
    def hve_public_key(self) -> HVEPublicKey:
        return self._hve_public

    # -- client registration (Fig. 2) -------------------------------------------

    def register_subscriber(
        self, name: str, attributes: set[str], cert_not_after: float | None = None
    ) -> SubscriberCredentials:
        """Register a subscriber with CP-ABE ``attributes`` (its clearances).

        The certificate is issued on a random *pseudonym*, not the name:
        the PBE-TS sees the certificate next to the plaintext predicate
        (Fig. 3), so an identity-bearing certificate would defeat the
        anonymizer and let it form the subscriber↔interest association.
        """
        self._check_unregistered(name)
        self._registered[name] = "subscriber"
        pseudonym = f"sub-{draw_bytes('pseudonym', 8).hex()}"
        return SubscriberCredentials(
            name=name,
            schema=self.schema,
            directory=self.directory,
            cpabe_secret_key=self._cpabe.keygen(self._cpabe_master, attributes),
            certificate=Certificate.issue(self._signer, pseudonym, "subscriber", cert_not_after),
        )

    def register_publisher(self, name: str) -> PublisherCredentials:
        self._check_unregistered(name)
        self._registered[name] = "publisher"
        return PublisherCredentials(
            name=name,
            schema=self.schema,
            directory=self.directory,
            cpabe_public_key=self._cpabe_public,
            hve_public_key=self._hve_public,
            certificate=Certificate.issue(self._signer, name, "publisher"),
        )

    def _check_unregistered(self, name: str) -> None:
        if name in self._registered:
            raise RegistrationError(f"{name!r} already registered as {self._registered[name]}")

