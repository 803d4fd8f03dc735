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

from ..cluster.router import shard_topology
from ..core.ara import RegistrationAuthority
from ..core.config import P3SConfig
from ..core.pbe_ts import TokenIssuer
from ..crypto.group import PairingGroup
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

DS_NAME = "ds"
RS_NAME = "rs"
PBE_TS_NAME = "pbe-ts"
ANON_NAME = "anon"
SERVICE_NAMES = (DS_NAME, RS_NAME, PBE_TS_NAME, ANON_NAME)


class LiveDeployment:
    """One fully-wired P3S deployment on real TCP sockets."""

    def __init__(self, config: P3SConfig | None = None):
        self.config = config or P3SConfig()
        self.group = PairingGroup(self.config.param_set)
        self.ara = RegistrationAuthority(self.group, self.config.schema)
        self.addresses = AddressBook()
        self.obs = self.config.obs
        if self.obs is not None:
            epoch = time.monotonic()
            self.obs.bind_clock(lambda: time.monotonic() - epoch)
            self.obs.install()
        # shard topology (repro.cluster): 1/1 keeps the classic names
        # and no cluster machinery at all
        self.ds_names, self.rs_names, self.cluster = shard_topology(self.config)
        self.ds_shards: dict[str, LiveDisseminationServer] = {}
        self.rs_shards: dict[str, LiveRepositoryServer] = {}
        self.ds: LiveDisseminationServer | None = None
        self.rs: LiveRepositoryServer | None = None
        self.pbe_ts: LivePBETokenServer | None = None
        self.anonymizer: LiveAnonymizationService | None = None
        self.publishers: dict[str, LivePublisher] = {}
        self.subscribers: dict[str, LiveSubscriber] = {}
        self._started = False

    @property
    def service_names(self) -> tuple[str, ...]:
        """Every third party in this deployment (telemetry poll set)."""
        return (*self.ds_names, *self.rs_names, PBE_TS_NAME, ANON_NAME)

    # -- service bring-up -------------------------------------------------------

    def _service_endpoint(self, name: str) -> LiveRpcEndpoint:
        identity = ServerIdentity.issue(self.ara, self.group, name)
        return LiveRpcEndpoint(
            name,
            self.addresses,
            ara_verify_key=self.ara.directory.ara_verify_key,
            identity=identity,
        )

    def _client_endpoint(self, name: str) -> LiveRpcEndpoint:
        return LiveRpcEndpoint(
            name, self.addresses, ara_verify_key=self.ara.directory.ara_verify_key
        )

    async def start(self, host: str = "127.0.0.1") -> None:
        """Bind every third party to an ephemeral port and publish the
        directory (addresses + ARA-signed service keys) — the live
        rendition of §4.3's registration hand-out."""
        config = self.config
        for rs_name in self.rs_names:
            self.rs_shards[rs_name] = LiveRepositoryServer(
                self._service_endpoint(rs_name),
                self.group,
                t_g=config.t_g,
                gc_interval_s=config.rs_gc_interval_s,
            )
        self.rs = self.rs_shards[self.rs_names[0]]
        for ds_name in self.ds_names:
            self.ds_shards[ds_name] = LiveDisseminationServer(
                self._service_endpoint(ds_name),
                self.rs_names[0],
                metadata_topic=config.metadata_topic,
                group=self.group,
                match_workers=config.match_workers,
                cluster=self.cluster,
            )
        self.ds = self.ds_shards[self.ds_names[0]]
        self.pbe_ts = LivePBETokenServer(
            self._service_endpoint(PBE_TS_NAME),
            TokenIssuer.provisioned_by(self.ara, config),
            self.group,
        )
        self.anonymizer = LiveAnonymizationService(self._service_endpoint(ANON_NAME))

        for service in (
            *self.rs_shards.values(),
            *self.ds_shards.values(),
            self.pbe_ts,
            self.anonymizer,
        ):
            bound_host, bound_port = await service.start(host)
            self.addresses.register(
                service.name, bound_host, bound_port, service.endpoint.identity.service_key
            )

        self.ara.install_service("ds", self.ds_names[0])
        self.ara.install_service("rs", self.rs_names[0], self.rs.pke.public)
        self.ara.install_service("pbe_ts", PBE_TS_NAME, self.pbe_ts.pke.public)
        self.ara.install_service("anonymizer", ANON_NAME)
        if self.cluster is not None:
            for rs_name, rs in self.rs_shards.items():
                self.cluster.rs_public_keys[rs_name] = rs.pke.public
            # by reference: every credential embeds this directory, so
            # all clients route through the same live ClusterMap
            self.ara.directory.cluster = self.cluster
        self._started = True

    # -- participants -----------------------------------------------------------

    async def add_publisher(self, name: str) -> LivePublisher:
        credentials = self.ara.register_publisher(name)
        publisher = LivePublisher(
            credentials,
            self._client_endpoint(name),
            self.group,
            guid_bytes=self.config.guid_bytes,
        )
        await publisher.connect()
        self.publishers[name] = publisher
        return publisher

    async def add_subscriber(
        self,
        name: str,
        attributes: set[str],
        on_payload=None,
        delegate_tokens: bool | None = None,
        retrieval_retries: int = 10,
        retry_delay_s: float = 0.05,
    ) -> LiveSubscriber:
        if delegate_tokens is None:
            delegate_tokens = self.config.delegated_matching
        credentials = self.ara.register_subscriber(name, attributes)
        subscriber = LiveSubscriber(
            credentials,
            self._client_endpoint(name),
            self.group,
            use_anonymizer=self.config.use_anonymizer,
            guid_bytes=self.config.guid_bytes,
            metadata_topic=self.config.metadata_topic,
            on_payload=on_payload,
            retrieval_retries=retrieval_retries,
            retry_delay_s=retry_delay_s,
            delegate_tokens=delegate_tokens,
        )
        await subscriber.connect()
        self.subscribers[name] = subscriber
        return subscriber

    # -- telemetry --------------------------------------------------------------

    def telemetry_client(self, name: str = "telemetry") -> TelemetryClient:
        """A poller over every third party's admin RPCs (health, metrics,
        spans) — the engine under ``repro live status`` and ``live top``."""
        return TelemetryClient(self._client_endpoint(name), self.service_names)

    async def scrape(self, aggregator=None):
        """One-shot telemetry sweep of all four services.

        Opens a short-lived client endpoint, polls, and closes it; pass an
        existing :class:`~repro.obs.aggregate.TelemetryAggregator` to keep
        state across sweeps (``live top`` does, for rates).
        """
        client = self.telemetry_client()
        try:
            return await client.scrape(aggregator)
        finally:
            await client.close()

    # -- shutdown ---------------------------------------------------------------

    async def close(self) -> None:
        """Graceful teardown: clients first, then services."""
        for publisher in self.publishers.values():
            await publisher.close()
        for subscriber in self.subscribers.values():
            await subscriber.close()
        for service in (
            self.anonymizer,
            self.pbe_ts,
            *self.ds_shards.values(),
            *self.rs_shards.values(),
        ):
            if service is not None:
                await service.close()
        self.publishers.clear()
        self.subscribers.clear()
        self.ds_shards.clear()
        self.rs_shards.clear()
        self._started = False
