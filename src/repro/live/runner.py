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
from dataclasses import dataclass

from ..core.config import P3SConfig
from ..core.plan import DeploymentPlan
from ..crypto.randomness import draw_bytes
from ..errors import RegistrationError
from .channel import ServerIdentity
from .deployment import LiveDeployment
from .scenario import play_on_live

__all__ = [
    "DeploymentState",
    "init_state",
    "load_state",
    "serve_role",
    "run_clients",
]


@dataclass
class DeploymentState:
    """Everything the ARA provisions at registration time, picklable:
    the deployment plan (trust root, service keys, topology, store
    keys) plus what only a multi-process deployment needs — each
    service's channel identity and the port plan."""

    host: str
    ports: dict[str, int]
    plan: DeploymentPlan
    identities: dict[str, ServerIdentity]

    def deployment(self) -> LiveDeployment:
        """A :class:`LiveDeployment` over this bundle's plan that starts
        no service of its own: its third parties are the ``serve-*``
        processes on the bundle's port plan."""
        deployment = LiveDeployment(self.plan)
        deployment.identities.update(self.identities)
        for name, identity in self.identities.items():
            deployment.addresses.register(
                name, self.host, self.ports[name], identity.service_key
            )
        return deployment


def init_state(
    path: str,
    host: str = "127.0.0.1",
    base_port: int = 7341,
    config: P3SConfig | None = None,
) -> DeploymentState:
    """Mint a deployment's trust material and write it to ``path``.

    ``config.data_dir`` turns on durable persistence: the RS and DS open
    ``repro.store`` WAL engines under ``<data_dir>/<role>``, each sealed
    with its own key minted here.
    """
    config = config or P3SConfig()
    if config.data_dir is not None and config.store_backend == "memory":
        config = config.with_(store_backend="wal")
    if config.data_dir is None and config.store_backend != "memory":
        raise RegistrationError(
            f"store_backend={config.store_backend!r} needs --data-dir"
        )
    plan = DeploymentPlan.derive(config)
    if config.data_dir is not None:
        os.makedirs(config.data_dir, exist_ok=True)
        plan.store_keys = {
            role: draw_bytes("key", 32) for role in (*plan.rs_names, *plan.ds_names)
        }
    roles = plan.service_names
    state = DeploymentState(
        host=host,
        ports={name: base_port + index for index, name in enumerate(roles)},
        plan=plan,
        identities={
            name: ServerIdentity.issue(plan.ara, plan.group, name) for name in roles
        },
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


async def serve_role(role: str, state: DeploymentState) -> None:
    """Start one service on its assigned port and serve until cancelled.

    A served role always has telemetry to report: when the process has no
    observability installed, a default bounded one (flight-recorder span
    storage at the stock capacity) is installed so the telemetry snapshot
    carries real metrics and spans — and memory stays flat however long
    the service runs.

    Continuous profiling rides along
    (:func:`~repro.obs.prof.sampler.start_default_profiler`); the
    snapshot carries the cumulative profile.
    """
    from ..obs import Observability
    from ..obs import hooks as obs_hooks
    from ..obs.prof import start_default_profiler
    from ..obs.ring import DEFAULT_FLIGHT_RECORDER_CAPACITY

    if obs_hooks.active() is None:
        Observability(span_capacity=DEFAULT_FLIGHT_RECORDER_CAPACITY).install()
    obs = obs_hooks.active()
    profiler = None
    if obs.profiler is None:
        profiler = start_default_profiler(obs, origin=f"{role}-wall")
    service = state.deployment().build_service(role)
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
    deployment = state.deployment()
    try:
        # no delivery oracle across processes: settle
        return await play_on_live(deployment, scenario, settle_s=1.0)
    finally:
        await deployment.close()
