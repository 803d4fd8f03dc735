"""What a P3S publisher and a P3S subscriber have in common.

The paper keeps "the top level JMS interface" and plugs P3S in beneath
it (§5): a client is its ARA credentials plus one
:class:`~repro.mq.client.JmsConnection` to every DS shard.  The
connection's ports (:mod:`repro.net.ports`) are the client's ports, so
the same class runs on the simulator and on asyncio; only what
``start()`` and friends return differs — nothing on the simulator, an
awaitable on asyncio (see :meth:`repro.net.ports.SimPorts.finish`).
"""

from __future__ import annotations

from ..abe.hybrid import HybridCPABE
from ..crypto.group import PairingGroup
from ..mq.client import JmsConnection
from ..pbe.hve import HVE
from .config import ComputeTimings

__all__ = ["P3SClient"]


class P3SClient:
    """Credentials, crypto engines and the JMS connection to the DS tier."""

    reliable_publish = False  # a publisher's config may turn it on

    def __init__(
        self,
        credentials,
        connection: JmsConnection,
        group: PairingGroup,
        timings: ComputeTimings,
        topic: str,
    ):
        self.credentials = credentials
        self.connection = connection
        self.ports = connection.ports
        self.group = group
        self.timings = timings
        self.hve = HVE(group)
        self.cpabe = HybridCPABE(group)
        self._topic = topic  # what this client's own PUBLISH frames are addressed to
        self._producer = None

    @property
    def name(self) -> str:
        return self.credentials.name

    @property
    def directory(self):
        return self.credentials.directory

    def start(self):
        """Register with the DS tier: JMS CONNECT on every shard (a
        subscriber also SUBSCRIBEs to the metadata topic)."""
        return self.ports.finish(self._start_process())

    def _start_process(self):
        yield self.connection.start()
        session = self.connection.create_session()
        self._producer = session.create_producer(self._topic)
        return session

    def reconnect(self):
        """Re-register with a restarted DS (§6.1: "upon restart a publisher
        needs only to (re)register with the DS")."""
        return self.connection.reconnect()

    def _send_to_ds(self, body, size: int, headers: dict, broker: str):
        """One JMS PUBLISH frame to one DS shard; returns whatever of the
        ports the calling body should wait on: the fire-and-forget cast,
        or (``reliable_publish``) nothing — the acked-retransmit body is
        spawned detached, so publish timing on the loss-free path matches
        the classic cast exactly."""
        sent = self._producer.send(
            body, size, headers=headers, broker=broker, reliable=self.reliable_publish
        )
        return self.ports.spawn(sent) if self.reliable_publish else sent
