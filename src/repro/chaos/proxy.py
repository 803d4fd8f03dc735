"""Live-substrate fault injection: a TCP proxy + a record-duplication shim.

Two complementary instruments, matching where each fault is physically
possible on the live stack:

* :class:`FaultProxy` — a transparent TCP relay interposed in front of a
  live service by re-registering its :class:`~repro.live.rpc.AddressBook`
  entry (:func:`interpose`).  It tears connections mid-stream and delays
  byte chunks, exercising `LiveRpcEndpoint`'s reconnect/backoff dialing
  and the clients' retrieval retry budgets against real sockets.  It
  never duplicates bytes: the AEAD record layer's strict sequence
  numbers make wire-level duplication a channel-fatal
  ``MessageLossError`` *by design*.
* :func:`duplicate_dispatch` — application-level record duplication via
  the ``dispatch_fanout`` seam on :class:`~repro.live.rpc.LiveRpcEndpoint`,
  re-dispatching selected decoded frames so the subscriber's GUID dedup
  boundary is exercised where duplication can actually occur (broker
  redelivery, client retransmission).

Proxies start *disarmed* (pure relays); :meth:`FaultProxy.arm` turns
faults on once setup traffic (handshakes, subscriptions) is done, so a
soak perturbs the steady state rather than the bootstrap.
"""

from __future__ import annotations

import asyncio
import random

__all__ = ["FaultProxy", "interpose", "duplicate_dispatch"]

# what an armed proxy does: tear every TEAR_EVERY_CONNS-th connection
# after a seeded 2..TEAR_AFTER_CHUNKS_MAX relayed chunks, and hold every
# DELAY_EVERY_CHUNKS-th chunk DELAY_S before forwarding it
TEAR_EVERY_CONNS = 2
TEAR_AFTER_CHUNKS_MAX = 4
DELAY_EVERY_CHUNKS = 3
DELAY_S = 0.02
# duplicate_dispatch: every DUPLICATE_EVERY-th matching frame twice
DUPLICATE_EVERY = 2


class FaultProxy:
    """A fault-injecting TCP relay in front of one upstream service.

    Faults are derived from ``random.Random(seed)`` per accepted
    connection: every :data:`TEAR_EVERY_CONNS`-th connection (1-based)
    is torn down abruptly after a seeded number of relayed chunks, and
    every :data:`DELAY_EVERY_CHUNKS`-th chunk in either direction is
    held :data:`DELAY_S` before forwarding.
    """

    def __init__(self, upstream_host: str, upstream_port: int, seed: int = 0):
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.armed = False
        self.connections = 0
        self.tears = 0
        self.delays = 0
        self._rng = random.Random(seed)
        self._server: asyncio.base_events.Server | None = None

    async def start(self, host: str = "127.0.0.1") -> tuple[str, int]:
        """Listen on an ephemeral port; returns ``(host, port)``."""
        self._server = await asyncio.start_server(self._handle, host, 0)
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    def arm(self) -> None:
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        conn_index = self.connections
        # the tear decision is made at accept time (seeded, per
        # connection) but only *enforced* while armed — long-lived
        # connections dialed during setup still tear once faults start
        tear_at: int | None = None
        if conn_index % TEAR_EVERY_CONNS == 0:
            tear_at = self._rng.randint(2, TEAR_AFTER_CHUNKS_MAX)
        try:
            up_reader, up_writer = await asyncio.open_connection(
                self.upstream_host, self.upstream_port
            )
        except OSError:
            writer.transport.abort()
            return
        chunk_count = [0]  # shared across both pump directions

        async def pump(src: asyncio.StreamReader, dst: asyncio.StreamWriter) -> None:
            try:
                while True:
                    data = await src.read(65536)
                    if not data:
                        break
                    chunk_count[0] += 1
                    if self.armed:
                        if tear_at is not None and chunk_count[0] >= tear_at:
                            self.tears += 1
                            # abort both directions: a mid-session RST,
                            # not a graceful FIN
                            writer.transport.abort()
                            up_writer.transport.abort()
                            return
                        if chunk_count[0] % DELAY_EVERY_CHUNKS == 0:
                            self.delays += 1
                            await asyncio.sleep(DELAY_S)
                    dst.write(data)
                    await dst.drain()
            except (ConnectionError, asyncio.CancelledError):
                pass
            finally:
                try:
                    dst.write_eof()
                except (OSError, RuntimeError):
                    pass

        try:
            await asyncio.gather(
                pump(reader, up_writer), pump(up_reader, writer), return_exceptions=True
            )
        except asyncio.CancelledError:
            pass  # proxy shutdown cancels in-flight relays; nothing to flush
        for w in (writer, up_writer):
            try:
                w.close()
            except RuntimeError:
                pass


async def interpose(deployment, names: list[str], seed: int = 0) -> dict[str, "FaultProxy"]:
    """Put a :class:`FaultProxy` in front of each named live service.

    Re-registers each service's address-book entry with the proxy's
    listen address (the signed service key is untouched — the proxy
    cannot speak the handshake, it only relays bytes).  Must run after
    ``deployment.start()`` and before clients dial, since endpoints
    resolve addresses at dial time.  Returns ``name → proxy``; callers
    own closing them.
    """
    proxies: dict[str, FaultProxy] = {}
    for offset, name in enumerate(names):
        entry = deployment.addresses.resolve(name)
        proxy = FaultProxy(entry.host, entry.port, seed=seed + offset)
        host, port = await proxy.start()
        deployment.addresses.register(name, host, port, entry.service_key)
        proxies[name] = proxy
    return proxies


def duplicate_dispatch(endpoint, msg_type: str) -> None:
    """Duplicate every :data:`DUPLICATE_EVERY`-th inbound ``msg_type``
    frame on ``endpoint``.

    Installs a ``dispatch_fanout`` hook re-dispatching the decoded frame
    twice — application-level duplication, injected behind the AEAD
    record layer where it can really happen.  RPC requests/responses are
    never duplicated (correlation ids make that a no-op anyway); this
    targets one-way pushes such as the DS's ``jms.deliver``.
    """
    counter = [0]

    def fanout(message) -> int:
        if message.msg_type != msg_type or message.headers.get("rpc"):
            return 1
        counter[0] += 1
        if counter[0] % DUPLICATE_EVERY == 0:
            return 2
        return 1

    endpoint.dispatch_fanout = fanout
