"""repro.live: the P3S deployment as real networked services.

The rest of the repository reproduces P3S inside a discrete-event
simulator; this package runs the same protocol over actual asyncio TCP
sockets — length-prefixed binary frames (:mod:`repro.live.wire`), an
authenticated-encryption channel with an ARA-anchored handshake
(:mod:`repro.live.channel`), a request/response RPC layer mirroring the
simulator endpoint's API (:mod:`repro.live.rpc`), the four third parties
as services (:mod:`repro.live.services`), publisher/subscriber clients
(:mod:`repro.live.clients`), and deployment/scenario orchestration
(:mod:`repro.live.deployment`, :mod:`repro.live.scenario`).  Every
service also answers the operator's telemetry request — one snapshot of
health, metrics, drained spans and profile — defined in
:mod:`repro.live.telemetry` and aggregated deployment-wide by
``repro live status`` / ``repro live top``.

No protocol rule lives here: the services and clients subclass the
:mod:`repro.core` classes, whose rules are generators over substrate
ports (:mod:`repro.net.ports`) — both substrates deliver identical
plaintext sets for identical scenarios (``tests/live/test_parity.py``).
"""

from .channel import SecureChannel, ServerIdentity, ServiceKey, accept_channel, connect_channel
from .clients import LivePublisher, LiveSubscriber
from .deployment import LiveDeployment
from .rpc import AddressBook, LiveRpcEndpoint
from .scenario import (
    PublicationSpec,
    Scenario,
    SubscriberSpec,
    default_scenario,
    run_on_live,
    run_on_simulator,
)
from .services import (
    LiveAnonymizationService,
    LiveDisseminationServer,
    LivePBETokenServer,
    LiveRepositoryServer,
)
from .telemetry import TelemetryClient, install_telemetry
from .wire import decode_frame, decode_payload, encode_frame, encode_payload

__all__ = [
    "AddressBook",
    "LiveRpcEndpoint",
    "SecureChannel",
    "ServerIdentity",
    "ServiceKey",
    "accept_channel",
    "connect_channel",
    "LivePublisher",
    "LiveSubscriber",
    "LiveDeployment",
    "LiveAnonymizationService",
    "LiveDisseminationServer",
    "LivePBETokenServer",
    "LiveRepositoryServer",
    "Scenario",
    "SubscriberSpec",
    "PublicationSpec",
    "default_scenario",
    "run_on_simulator",
    "run_on_live",
    "TelemetryClient",
    "install_telemetry",
    "encode_frame",
    "decode_frame",
    "encode_payload",
    "decode_payload",
]
