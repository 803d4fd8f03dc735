"""The P3S middleware: ARA, DS, RS, PBE-TS, anonymizer, and clients.

The quickest way in is :class:`~repro.core.system.P3SSystem`, which wires
a complete deployment inside the discrete-event simulator.  Individual
components are importable for custom topologies and for the privacy
analysis.
"""

from .ara import (
    PublisherCredentials,
    RegistrationAuthority,
    ServiceDirectory,
    SubscriberCredentials,
)
from .anonymizer import AnonymizationService
from .config import ComputeTimings, P3SConfig, default_schema
from .ds import DisseminationServer
from .guid import GUID_BYTES, random_guid
from .messages import AnonEnvelope, EncryptedMetadata, PayloadSubmission
from .embedded_ts import EmbeddedTokenSource
from .pbe_ts import PBETokenServer, SubscriptionPolicy
from .publisher import PublicationRecord, Publisher
from .rs import RepositoryServer
from .subscriber import Delivery, Subscriber, SubscriberStats
from .system import P3SSystem

__all__ = [
    "P3SSystem",
    "P3SConfig",
    "ComputeTimings",
    "default_schema",
    "RegistrationAuthority",
    "ServiceDirectory",
    "SubscriberCredentials",
    "PublisherCredentials",
    "DisseminationServer",
    "RepositoryServer",
    "PBETokenServer",
    "SubscriptionPolicy",
    "EmbeddedTokenSource",
    "AnonymizationService",
    "Publisher",
    "PublicationRecord",
    "Subscriber",
    "SubscriberStats",
    "Delivery",
    "EncryptedMetadata",
    "PayloadSubmission",
    "AnonEnvelope",
    "random_guid",
    "GUID_BYTES",
]
