"""The P3S third parties as real asyncio TCP services.

Each class here is the live-substrate shell around the service class in
:mod:`repro.core` — the *same* class the simulator runs:

====================================================  ==================================
service (:mod:`repro.core`)                           live shell (this module)
====================================================  ==================================
:class:`~repro.core.ds.DisseminationServer`           :class:`LiveDisseminationServer`
:class:`~repro.core.rs.RepositoryServer`              :class:`LiveRepositoryServer`
:class:`~repro.core.pbe_ts.PBETokenServer`            :class:`LivePBETokenServer`
:class:`~repro.core.anonymizer.AnonymizationService`  :class:`LiveAnonymizationService`
====================================================  ==================================

No protocol rule is written here.  The rules are generators in
:mod:`repro.core` that yield what their substrate ports hand them
(:mod:`repro.net.ports`); a shell gives them
:class:`~repro.net.ports.LivePorts` — asyncio awaitables, the wall
clock, no modelled compute — and adds only what is genuinely substrate:
the endpoint and its listener, background tasks, readiness checks and
metric samples for the telemetry plane, and shutdown.  That is why live
deliveries are byte-identical to simulated ones
(``tests/live/test_parity.py``), and ``tests/live/test_no_protocol_fork.py``
keeps it so.
"""

from __future__ import annotations

import asyncio
import time

from ..core.anonymizer import AnonymizationService
from ..core.ds import DisseminationServer
from ..core.messages import METADATA_TOPIC
from ..core.pbe_ts import PBETokenServer
from ..core.rs import RepositoryServer
from ..net.ports import LivePorts
from ..store import StorageEngine
from .rpc import LiveRpcEndpoint
from .telemetry import install_telemetry

__all__ = [
    "LiveDisseminationServer",
    "LiveRepositoryServer",
    "LivePBETokenServer",
    "LiveAnonymizationService",
]


def _store_samples(engine: StorageEngine, recovered: int) -> list[dict]:
    """Storage-engine counters, shared by the RS and DS metric snapshots."""
    status = engine.status()
    return [
        {"name": "store.backend_durable", "labels": {"backend": engine.backend},
         "value": int(engine.durable)},
        {"name": "store.last_committed_lsn", "labels": {},
         "value": status.get("last_committed_lsn", 0)},
        {"name": "store.live_records", "labels": {},
         "value": status.get("live_records", 0)},
        {"name": "store.tombstones", "labels": {},
         "value": status.get("tombstones", 0)},
        {"name": "store.compactions", "labels": {},
         "value": status.get("compactions", 0)},
        {"name": "store.recovered", "labels": {}, "value": recovered},
        {"name": "store.recovery_s", "labels": {},
         "value": status.get("recovery", {}).get("duration_s", 0.0)},
    ]


class _LiveService:
    """Shared shell: one endpoint, one listener, optional background
    tasks.  ``LiveX(endpoint, *parts, **options)`` builds the
    :mod:`repro.core` service ``X(ports, *parts, **options)`` next in the
    MRO over :class:`~repro.net.ports.LivePorts` on ``endpoint``."""

    clock = staticmethod(time.monotonic)  # what the service's ports.now() reads

    def __init__(self, endpoint: LiveRpcEndpoint, *parts, **options):
        self.endpoint = endpoint
        self._tasks: list[asyncio.Task] = []
        install_telemetry(self)
        super().__init__(LivePorts(endpoint, self.clock), *parts, **options)

    @property
    def name(self) -> str:
        return self.endpoint.name

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        return await self.endpoint.start_server(host, port)

    def health_checks(self) -> dict[str, bool]:
        """Service-specific readiness checks; substrate checks (listener,
        trust root, dial backoff) live in :mod:`repro.live.telemetry`."""
        return {"background_tasks_alive": all(not t.done() for t in self._tasks)}

    def extra_metrics(self) -> list[dict]:
        """Service-specific counter samples for the metrics snapshot."""
        return []

    async def close(self) -> None:
        for task in self._tasks:
            task.cancel()
        self._tasks.clear()
        await self.endpoint.close()


class LiveDisseminationServer(_LiveService, DisseminationServer):
    """The DS over TCP: topic broker + P3S publication handling.

    Clients reach the DS over their own live channels; delivery frames are
    pushed back over the same connection the subscriber opened (exactly
    the "TLS tunnels" the paper's broker keeps to its clients).
    """

    def health_checks(self) -> dict[str, bool]:
        checks = super().health_checks()
        # the pool is only part of readiness once delegated matching is in
        # play: no registered tokens → no pool to warm
        checks["match_pool_warm"] = (
            not self.registered_tokens or self._match_pool is not None
        )
        checks["store_recovered"] = self.store.healthy
        return checks

    def extra_metrics(self) -> list[dict]:
        samples = super().extra_metrics()
        samples.extend(
            [
                {"name": "ds.published", "labels": {}, "value": self.published_count},
                {"name": "ds.delivered", "labels": {}, "value": self.delivered_count},
                {"name": "ds.acked", "labels": {}, "value": self.acked_count},
                {
                    "name": "ds.subscribers",
                    "labels": {"topic": METADATA_TOPIC},
                    "value": self.registered_subscriber_count,
                },
                {
                    "name": "ds.registered_tokens",
                    "labels": {},
                    "value": len(self.registered_tokens),
                },
                {"name": "cluster.ds_shards", "labels": {},
                 "value": len(self.cluster.ds_names)},
                {"name": "cluster.rs_shards", "labels": {},
                 "value": len(self.cluster.rs_names)},
                {"name": "cluster.rs_replication", "labels": {},
                 "value": self.cluster.rs_replication},
            ]
        )
        samples.extend(_store_samples(self.store, self.recovered_registrations))
        return samples

    async def close(self) -> None:
        self.close_match_pool()
        await super().close()
        self.store.close()


class LiveRepositoryServer(_LiveService, RepositoryServer):
    """The RS over TCP, on the wall clock, with a real periodic GC task.

    Its ``store`` part must have been recovered against this clock's
    reading — ``plan.service(name, endpoint, ..., now=LiveRepositoryServer.clock())``.
    """

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        bound = await super().start(host, port)
        self._tasks.append(asyncio.ensure_future(self.ports.drive(self._gc_loop())))
        return bound

    def health_checks(self) -> dict[str, bool]:
        checks = super().health_checks()
        # readiness-meaningful alias: the GC loop is the RS's only
        # background task, and a dead GC means unbounded storage growth
        checks["gc_running"] = bool(self._tasks) and checks["background_tasks_alive"]
        # recovery completes inside RepositoryStore.__init__ (before the
        # listener exists), so an open engine has already replayed to its
        # last committed record; the check only goes false if the engine
        # later stops accepting writes
        checks["store_recovered"] = self.store.engine.healthy
        return checks

    def extra_metrics(self) -> list[dict]:
        samples = super().extra_metrics()
        samples.extend(
            [
                {"name": "rs.stored_items", "labels": {}, "value": self.store.item_count},
                {"name": "rs.expired", "labels": {}, "value": self.store.expired_count},
                {"name": "rs.recovered_items", "labels": {},
                 "value": self.store.recovered_count},
            ]
        )
        samples.extend(_store_samples(self.store.engine, self.store.recovered_count))
        return samples

    async def close(self) -> None:
        await super().close()
        self.store.close()


class LivePBETokenServer(_LiveService, PBETokenServer):
    """The PBE-TS over TCP."""

    clock = staticmethod(time.time)  # certificate validity is calendar time

    def extra_metrics(self) -> list[dict]:
        return [{"name": "pbe_ts.token_requests", "labels": {}, "value": self.token_requests}]


class LiveAnonymizationService(_LiveService, AnonymizationService):
    """The anonymizing relay over TCP: re-originates each inner request,
    so the RS/PBE-TS see the relay — never the subscriber — as the caller."""

    def extra_metrics(self) -> list[dict]:
        return [{"name": "anon.forwarded", "labels": {}, "value": self.forwarded_count}]
