"""The Fig. 1 deployment, derived once.

A :class:`DeploymentPlan` is everything about one P3S deployment that
does not depend on what carries its frames: the shard topology, the ARA
and what it provisions at registration time (the service directory, the
RS and PBE-TS PKE keypairs, the cluster map's replica keys), each
durable role's store engine, what every third party is built from, and
the option lists its clients are built with.  The simulator
(:class:`repro.core.system.P3SSystem`), the in-process TCP deployment
(:class:`repro.live.deployment.LiveDeployment`) and the multi-process
runner (:mod:`repro.live.runner`, which pickles the plan into its state
bundle) each *realise* the plan on their substrate — a ``P3SConfig``
field one of them honours is honoured by all three.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.router import ClusterMap, shard_topology
from ..crypto.group import PairingGroup
from ..crypto.pke import PKEKeyPair
from ..errors import RegistrationError
from ..mq.client import JmsConnection
from ..store import StorageEngine, open_service_engine
from .anonymizer import AnonymizationService
from .ara import RegistrationAuthority
from .config import P3SConfig
from .ds import DisseminationServer
from .pbe_ts import PBETokenServer, TokenIssuer
from .rs import RepositoryServer, RepositoryStore

__all__ = ["DeploymentPlan", "install_observability", "PBE_TS_NAME", "ANON_NAME"]

PBE_TS_NAME = "pbe-ts"
ANON_NAME = "anon"
CORE_SERVICES = (
    DisseminationServer,
    RepositoryServer,
    PBETokenServer,
    AnonymizationService,
)


def install_observability(config: P3SConfig, clock) -> None:
    """Bind ``config.obs`` to the substrate's ``clock`` and make it the
    process-wide sink of the instrumentation hooks."""
    if config.obs is not None:
        config.obs.bind_clock(clock)
        config.obs.install()


@dataclass
class DeploymentPlan:
    """One deployment's trust material, topology and build recipes."""

    config: P3SConfig
    ara: RegistrationAuthority
    ds_names: list[str]
    rs_names: list[str]
    rs_pkes: dict[str, PKEKeyPair]
    pbe_ts_pke: PKEKeyPair
    # per-role at-rest sealing keys (the multi-process runner mints one
    # per durable service); a role without one uses ``config.store_key``
    store_keys: dict[str, bytes] = field(default_factory=dict)

    @classmethod
    def derive(cls, config: P3SConfig) -> "DeploymentPlan":
        """Registration (§4.3) as a function of the config: mint the
        trust root and every service key, and publish the directory."""
        cluster = shard_topology(config)
        # the plan's own lists: the map's DS list shrinks around dead shards
        ds_names, rs_names = list(cluster.ds_names), list(cluster.rs_names)
        group = PairingGroup(config.param_set)
        ara = RegistrationAuthority(group, config.schema)
        rs_pkes = {name: PKEKeyPair(group) for name in rs_names}
        pbe_ts_pke = PKEKeyPair(group)
        ara.install_service("pbe_ts", PBE_TS_NAME, pbe_ts_pke.public)
        ara.install_service("anonymizer", ANON_NAME)
        cluster.rs_public_keys.update((name, pke.public) for name, pke in rs_pkes.items())
        # by reference: every credential embeds this directory, so all
        # clients (and, pickled, every serve-* process) route through
        # the same ClusterMap
        ara.directory.cluster = cluster
        return cls(config, ara, ds_names, rs_names, rs_pkes, pbe_ts_pke)

    @property
    def group(self) -> PairingGroup:
        return self.ara.group

    @property
    def cluster(self) -> ClusterMap:
        return self.ara.directory.cluster

    @property
    def sharded(self) -> bool:
        """More than one DS or RS shard: what failure detection and the
        cluster report are for (a shard the map routes around still
        counts)."""
        return len(self.ds_names) > 1 or len(self.rs_names) > 1

    def topology(self) -> dict:
        """The topology half of the ``cluster status`` report."""
        report: dict = {"sharded": self.sharded}
        if self.sharded:
            report["cluster"] = self.cluster.describe()
        return report

    @property
    def service_names(self) -> tuple[str, ...]:
        """Every third party in this deployment."""
        return (*self.ds_names, *self.rs_names, PBE_TS_NAME, ANON_NAME)

    # -- third parties -------------------------------------------------------------

    def open_store(self, role: str) -> StorageEngine | None:
        """``role``'s storage engine under ``config.data_dir/<role>``
        (None with the memory backend: the service keeps its own)."""
        return open_service_engine(
            self.config,
            self.config.data_dir,
            role,
            self.store_keys.get(role, self.config.store_key),
        )

    def service(self, role: str, ports, classes=CORE_SERVICES, now: float | None = None):
        """One third party of this plan, served on ``ports``.

        ``role`` is a concrete service name — ``ds``/``rs`` on
        single-node plans, ``ds0``/``rs1``/… on sharded ones.
        ``classes`` are the ``(DS, RS, PBE-TS, anonymizer)`` classes to
        build (default: the :mod:`repro.core` ones; the live shells take
        the same parts).  ``now`` is the serving clock's reading:
        recovered RS items' expiries are rebased onto it, because a
        wall-clock substrate's epoch died with the previous boot.
        """
        ds_class, rs_class, pbe_ts_class, anonymizer_class = classes
        config = self.config
        if role in self.ds_names:
            return ds_class(
                ports,
                self.cluster,
                group=self.group if config.delegated_matching else None,
                vector_length=config.schema.vector_length,
                timings=config.timings,
                match_workers=config.match_workers,
                store=self.open_store(role),
            )
        if role in self.rs_names:
            store = RepositoryStore(t_g=config.t_g, engine=self.open_store(role), now=now)
            return rs_class(
                ports, self.rs_pkes[role], config.timings, store, config.rs_gc_interval_s
            )
        if role == PBE_TS_NAME:
            issuer = TokenIssuer.provisioned_by(self.ara, config)
            return pbe_ts_class(ports, issuer, self.pbe_ts_pke, config.timings)
        if role == ANON_NAME:
            return anonymizer_class(ports)
        raise RegistrationError(
            f"unknown service role {role!r}; expected one of {self.service_names}"
        )

    # -- clients (Fig. 2 registration + the option lists) ----------------------

    def _client(self, cls, credentials, ports, **options):
        connection = JmsConnection(ports, self.ds_names)
        return cls(credentials, connection, self.group, self.config.timings, **options)

    def publisher(self, cls, ports, name: str):
        """Register ``name`` with the ARA and build its (unstarted)
        ``cls`` publisher over ``ports``."""
        return self._client(
            cls,
            self.ara.register_publisher(name),
            ports,
            reliable_publish=self.config.reliable_publish,
        )

    def subscriber(self, cls, ports, name: str, attributes: set[str], **options):
        """Register ``name`` with the ARA and build its (unstarted)
        ``cls`` subscriber over ``ports``; ``options`` are the
        substrate's per-subscriber ones (``on_payload``, …)."""
        credentials = self.ara.register_subscriber(name, attributes)
        return self._client(
            cls,
            credentials,
            ports,
            use_anonymizer=self.config.use_anonymizer,
            delegate_tokens=self.config.delegated_matching,
            **options,
        )
