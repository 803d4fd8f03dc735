"""Multi-process deployment: shared state + per-role service runners.

A live P3S deployment split across OS processes needs all parties to
agree on the trust root — the ARA's keys, each service's channel
identity, the RS/PBE-TS PKE keypairs, and the port plan.  The paper's
answer is registration: the ARA provisions everyone *before* traffic
flows (§4.3).  :func:`init_state` is that registration step as a CLI
action — it mints everything once and writes a state bundle to disk;
``repro live serve-<role> --state FILE`` processes then load the bundle
and serve exactly one party, and ``repro live run --state FILE`` drives
publisher/subscriber clients against them.

The bundle contains private key material (it *is* the ARA), so it is
plainly a secrets file: keep it on the deployment host.
"""

from __future__ import annotations

import asyncio
import os
import pickle
from dataclasses import dataclass, field

from ..cluster.router import ClusterMap, shard_names, shard_topology
from ..core.ara import RegistrationAuthority
from ..core.config import P3SConfig
from ..core.pbe_ts import TokenIssuer
from ..crypto.group import PairingGroup
from ..crypto.pke import PKEKeyPair
from ..errors import RegistrationError
from ..store import StorageEngine, open_service_engine
from .channel import ServerIdentity
from .clients import LivePublisher, LiveSubscriber
from .deployment import ANON_NAME, DS_NAME, PBE_TS_NAME, RS_NAME
from .rpc import AddressBook, LiveRpcEndpoint
from .services import (
    LiveAnonymizationService,
    LiveDisseminationServer,
    LivePBETokenServer,
    LiveRepositoryServer,
)

__all__ = [
    "DeploymentState",
    "SERVICE_ROLES",
    "init_state",
    "load_state",
    "build_service",
    "serve_role",
    "service_roles",
    "run_clients",
]

SERVICE_ROLES = (DS_NAME, RS_NAME, PBE_TS_NAME, ANON_NAME)


def service_roles(state: "DeploymentState") -> tuple[str, ...]:
    """Every role this bundle provisions (shard-aware port-plan order)."""
    return tuple(state.ports)


@dataclass
class DeploymentState:
    """Everything the ARA provisions at registration time, picklable."""

    host: str
    ports: dict[str, int]
    config: P3SConfig
    ara: RegistrationAuthority
    identities: dict[str, ServerIdentity]
    rs_pke: PKEKeyPair
    pbe_ts_pke: PKEKeyPair
    registered_clients: dict[str, str] = field(default_factory=dict)
    # durable persistence (repro.store): directory holding one subtree
    # per service, and the per-service at-rest sealing keys minted at
    # registration time (the bundle is already the secrets file)
    data_dir: str | None = None
    store_keys: dict[str, bytes] = field(default_factory=dict)
    # per-RS-shard PKE keypairs (sharded bundles); ``rs_pke`` stays the
    # first shard's pair so pre-cluster bundles keep loading
    rs_pkes: dict[str, PKEKeyPair] = field(default_factory=dict)

    @property
    def group(self) -> PairingGroup:
        return self.ara.group

    @property
    def cluster(self) -> ClusterMap | None:
        return getattr(self.ara.directory, "cluster", None)

    def open_store(self, role: str) -> StorageEngine | None:
        """``role``'s storage engine, sealed with the key minted for it
        at `repro live init --data-dir` time."""
        return open_service_engine(
            self.config, self.data_dir, role, self.store_keys.get(role)
        )

    def address_book(self) -> AddressBook:
        book = AddressBook()
        for name, identity in self.identities.items():
            book.register(name, self.host, self.ports[name], identity.service_key)
        return book

    def endpoint(self, name: str, identity: ServerIdentity | None = None) -> LiveRpcEndpoint:
        return LiveRpcEndpoint(
            name,
            self.address_book(),
            ara_verify_key=self.ara.directory.ara_verify_key,
            identity=identity,
        )


def init_state(
    path: str,
    host: str = "127.0.0.1",
    base_port: int = 7341,
    config: P3SConfig | None = None,
    data_dir: str | None = None,
) -> DeploymentState:
    """Mint a deployment's trust material and write it to ``path``.

    ``data_dir`` turns on durable persistence: the RS and DS open
    ``repro.store`` engines under ``<data_dir>/<role>`` (backend from
    ``config.store_backend``, defaulting to ``wal`` when a data dir is
    given), each sealed with its own key minted here.
    """
    config = config or P3SConfig()
    if data_dir is not None and config.store_backend == "memory":
        config = config.with_(store_backend="wal")
    if data_dir is None and config.store_backend != "memory":
        raise RegistrationError(
            f"store_backend={config.store_backend!r} needs --data-dir"
        )
    ds_names, rs_names, cluster = shard_topology(config)
    roles = (*ds_names, *rs_names, PBE_TS_NAME, ANON_NAME)
    group = PairingGroup(config.param_set)
    ara = RegistrationAuthority(group, config.schema)
    identities = {name: ServerIdentity.issue(ara, group, name) for name in roles}
    rs_pkes = {name: PKEKeyPair(group) for name in rs_names}
    rs_pke = rs_pkes[rs_names[0]]
    pbe_ts_pke = PKEKeyPair(group)
    ara.install_service("ds", ds_names[0])
    ara.install_service("rs", rs_names[0], rs_pke.public)
    ara.install_service("pbe_ts", PBE_TS_NAME, pbe_ts_pke.public)
    ara.install_service("anonymizer", ANON_NAME)
    if cluster is not None:
        # the cluster map rides inside the pickled directory, so every
        # serve-* process and every client loads the same topology
        cluster.rs_public_keys.update((name, pke.public) for name, pke in rs_pkes.items())
        ara.directory.cluster = cluster
    store_keys: dict[str, bytes] = {}
    if data_dir is not None:
        os.makedirs(data_dir, exist_ok=True)
        store_keys = {role: os.urandom(32) for role in (*rs_names, *ds_names)}
    state = DeploymentState(
        host=host,
        ports={name: base_port + index for index, name in enumerate(roles)},
        config=config,
        ara=ara,
        identities=identities,
        rs_pke=rs_pke,
        pbe_ts_pke=pbe_ts_pke,
        data_dir=data_dir,
        store_keys=store_keys,
        rs_pkes=rs_pkes,
    )
    with open(path, "wb") as handle:
        pickle.dump(state, handle)
    return state


def load_state(path: str) -> DeploymentState:
    with open(path, "rb") as handle:
        state = pickle.load(handle)
    if not isinstance(state, DeploymentState):
        raise RegistrationError(f"{path} is not a live deployment state bundle")
    return state


def build_service(role: str, state: DeploymentState):
    """Instantiate one third party from the shared state bundle.

    ``role`` is a concrete service name from the bundle's port plan —
    ``ds``/``rs`` on single-node bundles, ``ds0``/``rs1``/… on sharded
    ones.
    """
    if role in state.ports and role.startswith(DS_NAME):
        rs_names = shard_names(RS_NAME, getattr(state.config, "rs_shards", 1))
        return LiveDisseminationServer(
            state.endpoint(role, state.identities[role]),
            rs_names[0],
            metadata_topic=state.config.metadata_topic,
            group=state.group,
            match_workers=state.config.match_workers,
            store=state.open_store(role),
            cluster=state.cluster,
        )
    if role in state.ports and role.startswith(RS_NAME):
        pke = getattr(state, "rs_pkes", {}).get(role, state.rs_pke)
        return LiveRepositoryServer(
            state.endpoint(role, state.identities[role]),
            state.group,
            t_g=state.config.t_g,
            gc_interval_s=state.config.rs_gc_interval_s,
            pke=pke,
            engine=state.open_store(role),
        )
    if role == PBE_TS_NAME:
        return LivePBETokenServer(
            state.endpoint(PBE_TS_NAME, state.identities[PBE_TS_NAME]),
            TokenIssuer.provisioned_by(state.ara, state.config),
            state.group,
            pke=state.pbe_ts_pke,
        )
    if role == ANON_NAME:
        return LiveAnonymizationService(
            state.endpoint(ANON_NAME, state.identities[ANON_NAME])
        )
    raise RegistrationError(
        f"unknown service role {role!r}; expected one of {service_roles(state)}"
    )


async def serve_role(role: str, state: DeploymentState) -> None:
    """Start one service on its assigned port and serve until cancelled.

    A served role always has telemetry to report: when the process has no
    observability installed, a default bounded one (flight-recorder span
    storage at the stock capacity) is installed so ``KIND_METRICS`` /
    ``KIND_SPANS`` answer with real data instead of empty snapshots —
    and memory stays flat however long the service runs.

    Continuous profiling rides along: unless ``P3S_PROFILE=off``, the
    installed observability gets a background
    :class:`~repro.obs.prof.sampler.StackSampler` (``P3S_PROFILE_HZ``,
    default 19 — a deliberately gentle always-on rate) whose cumulative
    profile the ``KIND_PROFILE`` RPC serves.
    """
    import os

    from ..obs import Observability
    from ..obs import profile as obs_profile
    from ..obs.ring import DEFAULT_FLIGHT_RECORDER_CAPACITY

    if obs_profile.active() is None:
        Observability(span_capacity=DEFAULT_FLIGHT_RECORDER_CAPACITY).install()
    obs = obs_profile.active()
    profiler = None
    if obs.profiler is None and os.environ.get("P3S_PROFILE", "wall") != "off":
        from ..obs.prof import StackSampler

        hz = float(os.environ.get("P3S_PROFILE_HZ", "19"))
        profiler = obs.profiler = StackSampler(hz=hz, origin=f"{role}-wall")
        profiler.start()
    service = build_service(role, state)
    bound_host, bound_port = await service.start(state.host, state.ports[role])
    print(f"{role}: listening on {bound_host}:{bound_port}", flush=True)
    try:
        await asyncio.Event().wait()
    finally:
        if profiler is not None:
            profiler.stop()
        await service.close()


async def run_clients(state: DeploymentState, scenario) -> dict[str, tuple[bytes, ...]]:
    """Drive a scenario's clients against already-running services."""
    subscribers: dict[str, LiveSubscriber] = {}
    publisher: LivePublisher | None = None
    try:
        for spec in scenario.subscribers:
            subscriber = LiveSubscriber(
                state.ara.register_subscriber(spec.name, set(spec.attributes)),
                state.endpoint(spec.name),
                state.group,
                use_anonymizer=state.config.use_anonymizer,
                guid_bytes=state.config.guid_bytes,
                metadata_topic=state.config.metadata_topic,
                delegate_tokens=state.config.delegated_matching,
            )
            await subscriber.connect()
            for interest in spec.interests:
                await subscriber.subscribe(interest)
            subscribers[spec.name] = subscriber
        publisher = LivePublisher(
            state.ara.register_publisher(scenario.publisher_name),
            state.endpoint(scenario.publisher_name),
            state.group,
            guid_bytes=state.config.guid_bytes,
        )
        await publisher.connect()
        for publication in scenario.publications:
            await publisher.publish(
                publication.metadata_dict,
                publication.payload,
                policy=publication.policy,
                ttl_s=publication.ttl_s,
            )
        await asyncio.sleep(1.0)  # no delivery oracle across processes: settle
        return {
            name: tuple(sorted(d.payload for d in sub.stats.deliveries))
            for name, sub in subscribers.items()
        }
    finally:
        if publisher is not None:
            await publisher.close()
        for subscriber in subscribers.values():
            await subscriber.close()
