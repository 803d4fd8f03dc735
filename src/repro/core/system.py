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

Horizontal scaling (:mod:`repro.cluster`, docs/CLUSTER.md): every
deployment routes through the :class:`~repro.cluster.ClusterMap` carried
in the ServiceDirectory — the default one names one DS and one RS, and
``P3SConfig(ds_shards=K, rs_shards=M, rs_replication=N)`` builds K
dissemination shards and M repository shards behind it.
``system.ds`` / ``system.rs`` point at the first shard;
``system.ds_shards`` / ``system.rs_shards`` hold the full tier.
"""

from __future__ import annotations

from ..cluster import ClusterMap, MembershipTable
from ..net.network import Network
from ..net.simulator import Simulator
from ..pbe.hve import HVE
from ..pbe.schema import Interest
from .config import P3SConfig
from .ds import DisseminationServer
from .plan import ANON_NAME, PBE_TS_NAME, DeploymentPlan, install_observability
from .publisher import PublicationRecord, Publisher
from .rs import RepositoryServer
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
        # first, so the registration crypto below is already observed
        install_observability(self.config, lambda: self.sim.now)
        self.network = Network(
            self.sim,
            default_bandwidth_bps=self.config.bandwidth_bps,
            latency_s=self.config.latency_s,
        )
        # everything substrate-free — topology, ARA provisioning, service
        # keys, store engines, client options — comes from the plan
        self.plan = DeploymentPlan.derive(self.config)
        self.group = self.plan.group
        self.ara = self.plan.ara
        ds_names, rs_names = self.plan.ds_names, self.plan.rs_names

        # --- third parties (Fig. 1) ---
        self.rs_shards: dict[str, RepositoryServer] = {
            name: self.plan.service(name, self.network.add_host(name)) for name in rs_names
        }
        self.rs = self.rs_shards[rs_names[0]]
        self.ds_shards: dict[str, DisseminationServer] = {
            name: self._build_ds(name) for name in ds_names
        }
        self.ds = self.ds_shards[ds_names[0]]

        self.pbe_ts = self.plan.service(PBE_TS_NAME, self.network.add_host(PBE_TS_NAME))
        self.anonymizer = self.plan.service(ANON_NAME, self.network.add_host(ANON_NAME))

        # membership: every shard joins at epoch; on a sharded
        # deployment a daemon heartbeat process keeps the table current
        # and routes new publications away from dead DS shards (one node
        # has nowhere else to route, so its event schedule stays bare)
        self.membership = MembershipTable(failure_timeout_s=FAILURE_TIMEOUT_S)
        for name in ds_names:
            self.membership.join(name, "ds", now=self.sim.now)
        for name in rs_names:
            self.membership.join(name, "rs", now=self.sim.now)
        if self.plan.sharded:
            self.sim.process(self._heartbeat_loop())

        for rs in self.rs_shards.values():
            rs.start()
        for ds in self.ds_shards.values():
            ds.start()
        self.pbe_ts.start()
        self.anonymizer.start()

        self.publishers: dict[str, Publisher] = {}
        self.subscribers: dict[str, Subscriber] = {}

    @property
    def cluster(self) -> ClusterMap:
        return self.plan.cluster

    def _build_ds(self, name: str) -> DisseminationServer:
        host = self.network.add_host(name)
        for rs_shard in self.rs_shards:
            host.set_link_bandwidth(rs_shard, self.config.lan_bandwidth_bps)
        return self.plan.service(name, host)

    # -- membership / failure detection (repro.cluster) ------------------------

    def _heartbeat_loop(self):
        """Daemon process: shards that are up heartbeat; silent ones are
        swept dead and removed from the DS routing ring until they beat
        again.  The RS ring is static — replication plus retrieval
        failover covers a dead replica."""
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

    # -- participants -----------------------------------------------------------

    def add_publisher(self, name: str) -> Publisher:
        publisher = self.plan.publisher(Publisher, self.network.add_host(name), name)
        publisher.start()
        self.publishers[name] = publisher
        return publisher

    def add_subscriber(
        self,
        name: str,
        attributes: set[str],
        on_payload=None,
        embedded_token_source: bool = False,
    ) -> Subscriber:
        """Register and connect a subscriber.

        ``embedded_token_source=True`` enables the §8 future-work
        configuration: the ARA provisions PBE master material into the
        subscriber and tokens are minted locally, so the plaintext
        predicate never leaves the subscriber.
        """
        token_source = None
        if embedded_token_source:
            from .embedded_ts import EmbeddedTokenSource

            master_key, _ = self.ara.provision_pbe_ts()
            token_source = EmbeddedTokenSource(HVE(self.group), master_key, self.config.schema)
        subscriber = self.plan.subscriber(
            Subscriber,
            self.network.add_host(name),
            name,
            attributes,
            on_payload=on_payload,
            local_token_source=token_source,
        )
        subscriber.start()
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
        for ds in self.ds_shards.values():
            ds.close_match_pool()
            ds.store.close()
        for rs in self.rs_shards.values():
            rs.store.close()

    # -- experiment accessors ----------------------------------------------------------

    def cluster_status(self) -> dict:
        """JSON-friendly topology + membership report (`repro cluster status`)."""
        return {
            **self.plan.topology(),
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
