"""Stand up a full P3S deployment as real TCP services.

:class:`LiveDeployment` is the live counterpart of
:class:`repro.core.system.P3SSystem`: it wires the Fig. 1 topology — DS,
RS, PBE-TS, anonymization service, publishers, subscribers — but every
party is an asyncio TCP service (or client) on localhost instead of a
simulator process.  The ARA stays an offline trust root, exactly as in
the paper: it mints each service's channel identity
(:class:`repro.live.channel.ServerIdentity`), signs the service-key
directory, and registers clients by direct method call before any
network traffic flows.

Typical use::

    deployment = LiveDeployment()
    await deployment.start()
    alice = await deployment.add_subscriber("alice", {"org:acme"})
    await alice.subscribe(Interest({"attr00": "v01"}))
    pub = await deployment.add_publisher("pub")
    await pub.publish({...}, b"payload", policy="org:acme")
    await alice.wait_for_deliveries(1)
    await deployment.close()
"""

from __future__ import annotations

import time

from ..core.config import P3SConfig
from ..core.plan import ANON_NAME, PBE_TS_NAME, DeploymentPlan, install_observability
from ..net.ports import LivePorts
from .channel import ServerIdentity
from .clients import LivePublisher, LiveSubscriber
from .rpc import AddressBook, LiveRpcEndpoint
from .services import (
    LiveAnonymizationService,
    LiveDisseminationServer,
    LivePBETokenServer,
    LiveRepositoryServer,
)
from .telemetry import TelemetryClient

__all__ = ["LiveDeployment", "SERVICE_NAMES"]

SERVICE_NAMES = ("ds", "rs", PBE_TS_NAME, ANON_NAME)  # the single-node third parties
LIVE_SERVICES = (
    LiveDisseminationServer,
    LiveRepositoryServer,
    LivePBETokenServer,
    LiveAnonymizationService,
)


class LiveDeployment:
    """One fully-wired P3S deployment on real TCP sockets.

    Built from a :class:`P3SConfig` — or from an existing
    :class:`DeploymentPlan`, when the third parties it names run in
    other processes (:meth:`repro.live.runner.DeploymentState.deployment`
    fills :attr:`addresses` and :attr:`identities`; skip :meth:`start`).
    """

    def __init__(self, config: P3SConfig | DeploymentPlan | None = None):
        if not isinstance(config, DeploymentPlan):
            config = DeploymentPlan.derive(config or P3SConfig())
        self.plan = config
        self.config = self.plan.config
        self.addresses = AddressBook()
        # each service's ARA-signed channel identity, minted on first use
        self.identities: dict[str, ServerIdentity] = {}
        epoch = time.monotonic()
        install_observability(self.config, lambda: time.monotonic() - epoch)
        self.ds_shards: dict[str, LiveDisseminationServer] = {}
        self.rs_shards: dict[str, LiveRepositoryServer] = {}
        self.ds: LiveDisseminationServer | None = None
        self.rs: LiveRepositoryServer | None = None
        self.pbe_ts: LivePBETokenServer | None = None
        self.anonymizer: LiveAnonymizationService | None = None
        self._services: list = []  # what start() brought up, in bring-up order
        self.publishers: dict[str, LivePublisher] = {}
        self.subscribers: dict[str, LiveSubscriber] = {}

    @property
    def service_names(self) -> tuple[str, ...]:
        """Every third party in this deployment (telemetry poll set)."""
        return self.plan.service_names

    # -- service bring-up -------------------------------------------------------

    def build_service(self, role: str):
        """One third party of the plan as a (not yet listening) live
        service, under its ARA-signed channel identity."""
        if role not in self.identities:
            self.identities[role] = ServerIdentity.issue(
                self.plan.ara, self.plan.group, role
            )
        return self.plan.service(
            role,
            self._client_endpoint(role, self.identities[role]),
            LIVE_SERVICES,
            now=LiveRepositoryServer.clock(),
        )

    def _client_endpoint(self, name: str, identity: ServerIdentity | None = None):
        return LiveRpcEndpoint(
            name,
            self.addresses,
            ara_verify_key=self.plan.ara.directory.ara_verify_key,
            identity=identity,
        )

    async def start(self, host: str = "127.0.0.1") -> None:
        """Bind every third party to an ephemeral port and publish its
        address next to its ARA-signed service key — the live rendition
        of §4.3's registration hand-out (the directory itself is the
        plan's)."""
        plan = self.plan
        self.rs_shards = {name: self.build_service(name) for name in plan.rs_names}
        self.ds_shards = {name: self.build_service(name) for name in plan.ds_names}
        self.rs = self.rs_shards[plan.rs_names[0]]
        self.ds = self.ds_shards[plan.ds_names[0]]
        self.pbe_ts = self.build_service(PBE_TS_NAME)
        self.anonymizer = self.build_service(ANON_NAME)
        self._services = [
            *self.rs_shards.values(), *self.ds_shards.values(), self.pbe_ts, self.anonymizer
        ]
        for service in self._services:
            bound_host, bound_port = await service.start(host)
            self.addresses.register(
                service.name, bound_host, bound_port, service.endpoint.identity.service_key
            )

    # -- participants -----------------------------------------------------------

    async def add_publisher(self, name: str) -> LivePublisher:
        publisher = self.plan.publisher(
            LivePublisher, LivePorts(self._client_endpoint(name)), name
        )
        await publisher.start()
        self.publishers[name] = publisher
        return publisher

    async def add_subscriber(
        self,
        name: str,
        attributes: set[str],
        on_payload=None,
    ) -> LiveSubscriber:
        subscriber = self.plan.subscriber(
            LiveSubscriber,
            LivePorts(self._client_endpoint(name)),
            name,
            attributes,
            on_payload=on_payload,
        )
        await subscriber.start()
        self.subscribers[name] = subscriber
        return subscriber

    # -- telemetry --------------------------------------------------------------

    def telemetry_client(self) -> TelemetryClient:
        """The operator's poller over every third party's telemetry —
        the plan holds the ARA, whose signature makes it the operator."""
        return TelemetryClient(
            self._client_endpoint("telemetry"), self.service_names, self.plan.ara
        )

    # -- shutdown ---------------------------------------------------------------

    async def close(self) -> None:
        """Graceful teardown: clients first, then services."""
        for publisher in self.publishers.values():
            await publisher.close()
        for subscriber in self.subscribers.values():
            await subscriber.close()
        for service in reversed(self._services):
            await service.close()
        self._services.clear()
        self.publishers.clear()
        self.subscribers.clear()
        self.ds_shards.clear()
        self.rs_shards.clear()
