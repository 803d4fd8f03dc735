"""Deployment orchestration: stand up a full P3S system in the simulator.

:class:`P3SSystem` builds the topology of Fig. 1 — DS, RS, PBE-TS,
anonymization service, any number of publishers and subscribers — wires
all keying material through the ARA, and exposes convenience accessors
for experiments (deliveries per publication, per-component observation
logs, the eavesdropper wire trace).

Typical use::

    system = P3SSystem()
    alice = system.add_subscriber("alice", attributes={"org:acme"})
    system.subscribe(alice, Interest({"topic": "m&a"}))
    bob = system.add_publisher("bob")
    record = bob.publish({"topic": "m&a", ...}, b"payload", policy="org:acme")
    system.run()
    deliveries = system.deliveries_for(record)

Horizontal scaling (:mod:`repro.cluster`, docs/CLUSTER.md): with
``P3SConfig(ds_shards=K, rs_shards=M, rs_replication=N)`` the same call
builds K dissemination shards and M repository shards behind a
:class:`~repro.cluster.ClusterMap` carried in the ServiceDirectory.
``system.ds`` / ``system.rs`` keep pointing at the first shard, so
single-node code and tests run unchanged; ``system.ds_shards`` /
``system.rs_shards`` hold the full tier.
"""

from __future__ import annotations

from ..cluster import ClusterMap, MembershipTable
from ..cluster.router import shard_topology
from ..cluster.rebalance import HandoffReport, copy_registrations, handoff_items
from ..crypto.group import PairingGroup
from ..crypto.pke import PKEKeyPair
from ..mq.client import JmsConnection
from ..net.network import Network
from ..net.simulator import Simulator
from ..pbe.hve import HVE
from ..pbe.schema import Interest
from ..store import StorageEngine, open_service_engine
from .anonymizer import AnonymizationService
from .ara import RegistrationAuthority
from .config import P3SConfig
from .ds import DisseminationServer
from .pbe_ts import PBETokenServer, TokenIssuer
from .publisher import PublicationRecord, Publisher
from .rs import RepositoryServer, RepositoryStore
from .subscriber import Delivery, Subscriber

__all__ = ["P3SSystem"]

HEARTBEAT_INTERVAL_S = 1.0
FAILURE_TIMEOUT_S = 3.5  # > 3 missed beats before a shard is declared dead


class P3SSystem:
    """One fully-wired P3S deployment inside a discrete-event simulation."""

    def __init__(self, config: P3SConfig | None = None):
        self.config = config or P3SConfig()
        self.sim = Simulator()
        self.obs = self.config.obs
        self.profiler = self.config.profiler
        if self.profiler is not None and self.obs is None:
            raise ValueError("P3SConfig(profiler=...) requires obs=Observability()")
        if self.obs is not None:
            # bind span timestamps to this simulator's clock and become
            # the process-wide sink for the instrumentation hooks
            self.obs.bind_clock(lambda: self.sim.now)
            if self.profiler is not None:
                self.obs.profiler = self.profiler
                self.profiler.start()
            self.obs.install()
        self.network = Network(
            self.sim,
            default_bandwidth_bps=self.config.bandwidth_bps,
            latency_s=self.config.latency_s,
        )
        self.group = PairingGroup(self.config.param_set)
        self.ara = RegistrationAuthority(self.group, self.config.schema)

        ds_names, rs_names, self.cluster = shard_topology(self.config)

        # --- third parties (Fig. 1) ---
        self.rs_shards: dict[str, RepositoryServer] = {}
        for name in rs_names:
            self.rs_shards[name] = self._build_rs(name)
        self.rs = self.rs_shards[rs_names[0]]

        self.ds_shards: dict[str, DisseminationServer] = {}
        for name in ds_names:
            self.ds_shards[name] = self._build_ds(name, rs_names[0])
        self.ds = self.ds_shards[ds_names[0]]

        self.pbe_ts = PBETokenServer(
            self.network.add_host("pbe-ts"),
            TokenIssuer.provisioned_by(self.ara, self.config),
            PKEKeyPair(self.group),
            self.config.timings,
        )
        self.anonymizer = AnonymizationService(self.network.add_host("anon"))

        self.ara.install_service("ds", ds_names[0])
        self.ara.install_service("rs", rs_names[0], self.rs.pke.public)
        self.ara.install_service("pbe_ts", "pbe-ts", self.pbe_ts.pke.public)
        self.ara.install_service("anonymizer", "anon")
        if self.cluster is not None:
            for name, rs in self.rs_shards.items():
                self.cluster.rs_public_keys[name] = rs.pke.public
            self.ara.directory.cluster = self.cluster

        # membership: every shard joins at epoch; a daemon heartbeat
        # process keeps the table current on sharded deployments and
        # routes new publications away from dead DS shards
        self.membership = MembershipTable(failure_timeout_s=FAILURE_TIMEOUT_S)
        for name in ds_names:
            self.membership.join(name, "ds", now=self.sim.now)
        for name in rs_names:
            self.membership.join(name, "rs", now=self.sim.now)
        if self.cluster is not None:
            self.sim.process(self._heartbeat_loop())

        for rs in self.rs_shards.values():
            rs.start()
        for ds in self.ds_shards.values():
            ds.start()
        self.pbe_ts.start()
        self.anonymizer.start()

        self.publishers: dict[str, Publisher] = {}
        self.subscribers: dict[str, Subscriber] = {}

    def _build_rs(self, name: str) -> RepositoryServer:
        return RepositoryServer(
            self.network.add_host(name),
            PKEKeyPair(self.group),
            self.config.timings,
            RepositoryStore(t_g=self.config.t_g, engine=self._open_store(name)),
            self.config.rs_gc_interval_s,
        )

    def _build_ds(self, name: str, rs_name: str) -> DisseminationServer:
        host = self.network.add_host(name)
        for rs_shard in self.rs_shards:
            host.set_link_bandwidth(rs_shard, self.config.lan_bandwidth_bps)
        return DisseminationServer(
            host,
            rs_name,
            self.config.metadata_topic,
            group=self.group,
            timings=self.config.timings,
            match_workers=self.config.match_workers,
            store=self._open_store(name),
            cluster=self.cluster,
        )

    def _open_store(self, role: str) -> StorageEngine | None:
        return open_service_engine(
            self.config, self.config.data_dir, role, self.config.store_key
        )

    # -- membership / failure detection (repro.cluster) ------------------------

    def _heartbeat_loop(self):
        """Daemon process: shards that are up heartbeat; silent ones are
        swept dead and removed from the DS routing ring until they beat
        again.  The RS ring is deliberately left static — replication
        plus retrieval failover covers a dead replica, and churning the
        ring on every flap would force rebalances mid-failure."""
        while True:
            yield self.sim.timeout(HEARTBEAT_INTERVAL_S, daemon=True)
            now = self.sim.now
            for name, ds in self.ds_shards.items():
                if not ds.crashed:
                    self.membership.heartbeat(name, now)
            for name, rs in self.rs_shards.items():
                if not rs.crashed:
                    self.membership.heartbeat(name, now)
            for name in self.membership.sweep(now):
                if name in self.ds_shards:
                    self.cluster.remove_ds(name)
            for name in self.membership.alive("ds"):
                if name in self.ds_shards and name not in self.cluster.ds_names:
                    self.cluster.add_ds(name)

    # -- elastic topology (repro.cluster.rebalance) ----------------------------

    def _ensure_cluster(self) -> ClusterMap:
        """Attach a ClusterMap to a classic single-node deployment the
        first time its topology grows; existing credentials see it
        immediately (the directory is embedded by reference)."""
        if self.cluster is None:
            self.cluster = ClusterMap(
                ds_names=list(self.ds_shards),
                rs_names=list(self.rs_shards),
                rs_replication=max(1, self.config.rs_replication),
                rs_public_keys={
                    name: rs.pke.public for name, rs in self.rs_shards.items()
                },
            )
            self.ara.directory.cluster = self.cluster
            for ds in self.ds_shards.values():
                ds.cluster = self.cluster
            self.sim.process(self._heartbeat_loop())
        return self.cluster

    def add_ds_shard(self, name: str | None = None) -> DisseminationServer:
        """Grow the DS tier by one shard, live.

        The joiner bootstraps its token/subscription tables from an
        existing shard (:func:`~repro.cluster.rebalance.copy_registrations`),
        every connected client learns the new broker, and the routing
        ring picks it up — so it starts owning its share of *new*
        publications immediately.
        """
        cluster = self._ensure_cluster()
        name = name or f"ds{len(self.ds_shards)}"
        if name in self.ds_shards:
            raise ValueError(f"DS shard {name!r} already exists")
        ds = self._build_ds(name, self.ds.rs_name)
        ds.start()
        self.ds_shards[name] = ds
        copy_registrations(self.ds, ds)
        cluster.add_ds(name)
        self.membership.join(name, "ds", now=self.sim.now)
        for subscriber in self.subscribers.values():
            subscriber.connection.add_broker(name)
        for publisher in self.publishers.values():
            publisher.connection.add_broker(name)
        return ds

    def add_rs_shard(
        self, name: str | None = None
    ) -> tuple[RepositoryServer, HandoffReport]:
        """Grow the RS tier by one shard and rebalance.

        Existing items are handed off through
        :func:`~repro.cluster.rebalance.handoff_items` so only the key
        range the new ring assigns to the joiner (≈ 1/n of the keyspace)
        actually moves.
        """
        cluster = self._ensure_cluster()
        name = name or f"rs{len(self.rs_shards)}"
        if name in self.rs_shards:
            raise ValueError(f"RS shard {name!r} already exists")
        rs = self._build_rs(name)
        for ds_name in self.ds_shards:
            self.network.host(ds_name).set_link_bandwidth(
                name, self.config.lan_bandwidth_bps
            )
        rs.start()
        self.rs_shards[name] = rs
        cluster.add_rs(name, rs.pke.public)
        self.membership.join(name, "rs", now=self.sim.now)
        report = handoff_items(
            {shard: server.store for shard, server in self.rs_shards.items()},
            cluster.rs_ring,
            cluster.rs_replication,
        )
        return rs, report

    # -- participants -----------------------------------------------------------

    def add_publisher(self, name: str) -> Publisher:
        credentials = self.ara.register_publisher(name)
        connection = JmsConnection(
            self.network.add_host(name), list(self.ds_shards)
        )
        connection.start()
        publisher = Publisher(
            credentials,
            connection,
            self.group,
            self.config.timings,
            guid_bytes=self.config.guid_bytes,
            reliable_publish=self.config.reliable_publish,
        )
        self.publishers[name] = publisher
        return publisher

    def add_subscriber(
        self,
        name: str,
        attributes: set[str],
        on_payload=None,
        embedded_token_source: bool = False,
        delegate_tokens: bool | None = None,
    ) -> Subscriber:
        """Register and connect a subscriber.

        ``embedded_token_source=True`` enables the §8 future-work
        configuration: the ARA provisions PBE master material into the
        subscriber and tokens are minted locally, so the plaintext
        predicate never leaves the subscriber.

        ``delegate_tokens`` (default: the config's ``delegated_matching``)
        registers this subscriber's tokens with the DS for pre-filtered
        fan-out — see :mod:`repro.core.ds` for the privacy trade-off.
        """
        if delegate_tokens is None:
            delegate_tokens = self.config.delegated_matching
        credentials = self.ara.register_subscriber(name, attributes)
        connection = JmsConnection(
            self.network.add_host(name), list(self.ds_shards)
        )
        connection.start()
        token_source = None
        if embedded_token_source:
            from .embedded_ts import EmbeddedTokenSource

            master_key, _ = self.ara.provision_pbe_ts()
            token_source = EmbeddedTokenSource(HVE(self.group), master_key, self.config.schema)
        subscriber = Subscriber(
            credentials,
            connection,
            self.group,
            self.config.timings,
            use_anonymizer=self.config.use_anonymizer,
            guid_bytes=self.config.guid_bytes,
            metadata_topic=self.config.metadata_topic,
            on_payload=on_payload,
            local_token_source=token_source,
            delegate_tokens=delegate_tokens,
        )
        self.subscribers[name] = subscriber
        return subscriber

    def subscribe(self, subscriber: Subscriber, interest: Interest):
        """Kick off the Fig. 3 token-request protocol for ``interest``."""
        return subscriber.subscribe(interest)

    # -- fault injection (repro.chaos) ------------------------------------------

    def set_fault_injector(self, injector) -> None:
        """Install a chaos fault injector on this deployment's network.

        ``injector`` follows the :meth:`repro.net.network.Network.set_fault_injector`
        contract — typically a :class:`repro.chaos.inject.SimFaultInjector`
        armed with a seeded :class:`repro.chaos.schedule.FaultSchedule`.
        Pass ``None`` to restore the lossless network.
        """
        self.network.set_fault_injector(injector)

    # -- execution ------------------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        self.sim.run(until=until)

    @property
    def now(self) -> float:
        return self.sim.now

    def close(self) -> None:
        """Release every shard's pool workers and store handles."""
        if self.profiler is not None:
            self.profiler.stop()
        for ds in self.ds_shards.values():
            ds.close_match_pool()
            ds.store.close()
        for rs in self.rs_shards.values():
            rs.store.close()

    # -- experiment accessors ----------------------------------------------------------

    def cluster_status(self) -> dict:
        """JSON-friendly topology + membership report (`repro cluster status`)."""
        status: dict = {
            "sharded": self.cluster is not None,
            "ds_shards": list(self.ds_shards),
            "rs_shards": list(self.rs_shards),
            "membership": self.membership.snapshot(self.sim.now),
            "rs_items": {
                name: rs.store.item_count for name, rs in self.rs_shards.items()
            },
            "ds_publications": {
                name: sum(ds.publications_by_publisher.values())
                for name, ds in self.ds_shards.items()
            },
        }
        if self.cluster is not None:
            status["cluster"] = self.cluster.describe()
        return status

    def deliveries_for(self, record: PublicationRecord) -> list[Delivery]:
        """All deliveries of one publication, across every subscriber."""
        return [
            delivery
            for subscriber in self.subscribers.values()
            for delivery in subscriber.stats.deliveries
            if delivery.guid == record.guid
        ]

    def delivery_latencies(self, record: PublicationRecord) -> list[float]:
        """End-to-end latency (submit → application delivery) per receiver."""
        return [
            delivery.delivered_at - record.submitted_at
            for delivery in self.deliveries_for(record)
        ]
