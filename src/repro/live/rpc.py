"""Request/response RPC over live secure channels.

:class:`LiveRpcEndpoint` is the asyncio substrate under the frame rules
of :class:`repro.net.rpc.Endpoint` — the rules the simulator's
:class:`~repro.net.rpc.RpcEndpoint` runs too, so P3S protocol logic reads
identically on both substrates.  What is written here is only how a
frame leaves (dial, then ``send_record``), how a wait is made (a
future with a deadline) and how a body runs (a task the endpoint owns).

Connection management:

* **dialing** — outbound connections are established on demand from the
  :class:`AddressBook`, with :data:`RECONNECT_ATTEMPTS` attempts under
  exponential backoff (``BACKOFF_BASE_S * 2^attempt``, capped at
  :data:`BACKOFF_CAP_S`), then kept open and multiplexed;
* **serving** — services call :meth:`start_server`; every accepted
  connection is handshaken and read.  A client's name is a claim, so an
  accepted channel becomes the way to its peer only for a name the
  directory does not hold: a service can *push* frames to connected
  clients (the DS delivering metadata broadcasts) over the connection
  the client opened, while a directory name is always reached over the
  channel this endpoint dialed.  A reply goes back over the channel its
  request came in on;
* **timeouts** — every ``call`` has a deadline, :data:`CALL_TIMEOUT_S`
  unless it names one (:class:`~repro.errors.TransportError` on
  expiry); a dial's handshake has :data:`CONNECT_TIMEOUT_S`;
* **graceful shutdown** — :meth:`close` stops the listener, closes every
  channel, cancels reader tasks, and fails pending waits instead of
  leaving them hanging;
* **gauges** — every endpoint keeps always-on transport accounting for
  the telemetry plane (:meth:`stats`): open connections, in-flight
  calls, the pending-call high-water mark, dial/reconnect counters, and
  per-peer tx/rx byte and frame totals measured at the AEAD record
  layer (seal overhead included).  A peer currently stuck in a dial
  backoff loop flips :attr:`dial_backoff_active`, which health-readiness
  reports as not-ready.
"""

from __future__ import annotations

import asyncio
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

from ..crypto.signing import VerifyKey
from ..errors import MessageLossError, NetworkError, TransportError
from ..net.rpc import Endpoint
from ..net.transport import TransportMessage
from ..obs import hooks as obs
from .channel import SecureChannel, ServerIdentity, ServiceKey, accept_channel, connect_channel
from .wire import decode_frame, encode_frame

__all__ = ["AddressBook", "LiveRpcEndpoint"]

CALL_TIMEOUT_S = 15.0  # a call's deadline unless it names one
CONNECT_TIMEOUT_S = 5.0  # one dial: TCP connect plus the channel handshake
RECONNECT_ATTEMPTS = 5  # dials to one peer before a call fails
BACKOFF_BASE_S = 0.05  # the sleep before the second dial, doubling after
BACKOFF_CAP_S = 1.0  # the longest sleep between two dials


@dataclass
class _Entry:
    host: str
    port: int
    service_key: ServiceKey


class AddressBook:
    """Name → (address, signed service key): the live service directory.

    The ARA distributes exactly this at registration time ("contact
    information for the P3S services ... and their public key
    certificates", §4.3).
    """

    def __init__(self) -> None:
        self._entries: dict[str, _Entry] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def register(self, name: str, host: str, port: int, service_key: ServiceKey) -> None:
        self._entries[name] = _Entry(host, port, service_key)

    def resolve(self, name: str) -> _Entry:
        entry = self._entries.get(name)
        if entry is None:
            raise TransportError(f"no address for {name!r} in the service directory")
        return entry

    def to_dict(self) -> dict[str, tuple[str, int]]:
        return {name: (e.host, e.port) for name, e in self._entries.items()}


class LiveRpcEndpoint(Endpoint):
    """RPC + one-way messaging endpoint for one live P3S party."""

    def __init__(
        self,
        name: str,
        addresses: AddressBook,
        ara_verify_key: VerifyKey | None = None,
        identity: ServerIdentity | None = None,
    ):
        super().__init__()
        self._name = name
        self.addresses = addresses
        self.ara_verify_key = ara_verify_key
        self.identity = identity
        self.call_timeout_s = CALL_TIMEOUT_S
        self._channels: dict[str, SecureChannel] = {}  # the way to each peer
        self._readers: dict[SecureChannel, asyncio.Task] = {}  # every adopted channel
        self._dial_locks: dict[str, asyncio.Lock] = {}
        self._waits: set[asyncio.Future] = set()  # outstanding completables
        self._handler_tasks: set[asyncio.Task] = set()
        self._server: asyncio.base_events.Server | None = None
        self._closed = False
        # telemetry gauges/counters — plain attribute bumps, always on
        self.tx_bytes: dict[str, int] = defaultdict(int)
        self.rx_bytes: dict[str, int] = defaultdict(int)
        self.rx_frames: dict[str, int] = defaultdict(int)
        self.reconnects = 0
        self.pending_high_water = 0
        self._backoff_peers: set[str] = set()
        # Chaos seam (repro.chaos.proxy.duplicate_dispatch): when set,
        # called once per decoded inbound frame; the returned count is
        # how many times the frame is dispatched — >1 injects
        # application-level duplicate records *behind* the AEAD record
        # layer, whose strict sequence numbers make on-the-wire
        # duplication impossible by design.  0 suppresses the frame.
        self.dispatch_fanout: Callable[[TransportMessage], int] | None = None

    @property
    def name(self) -> str:
        return self._name

    # -- telemetry gauges --------------------------------------------------------

    @property
    def open_connections(self) -> int:
        """Live channels currently usable (dialed or accepted)."""
        return sum(1 for channel in self._readers if not channel.closed)

    @property
    def in_flight_calls(self) -> int:
        """Requests sent and still awaiting their response."""
        return len(self._pending)

    @property
    def dial_backoff_active(self) -> bool:
        """True while any peer is inside the dial-retry backoff loop."""
        return bool(self._backoff_peers)

    def stats(self) -> dict[str, Any]:
        """Point-in-time transport accounting for the telemetry plane."""
        return {
            "open_connections": self.open_connections,
            "in_flight_calls": self.in_flight_calls,
            "pending_high_water": self.pending_high_water,
            "reconnects": self.reconnects,
            "tx_bytes": dict(self.tx_bytes),
            "rx_bytes": dict(self.rx_bytes),
            "rx_frames": dict(self.rx_frames),
        }

    # -- server side -----------------------------------------------------------

    async def start_server(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Listen for live connections; returns the bound ``(host, port)``.

        ``port=0`` binds an ephemeral port (tests and single-host demos).
        Requires an :class:`ServerIdentity` — only services listen.
        """
        if self.identity is None:
            raise TransportError(f"{self._name} has no server identity; cannot listen")
        self._server = await asyncio.start_server(self._on_connection, host, port)
        sock_host, sock_port = self._server.sockets[0].getsockname()[:2]
        return sock_host, sock_port

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            channel = await accept_channel(reader, writer, self.identity)
        except NetworkError:
            return  # failed handshakes never reach the application
        self._adopt(channel.peer_name, channel, dialed=False)

    # -- connection management -------------------------------------------------

    def _adopt(self, peer: str, channel: SecureChannel, dialed: bool) -> None:
        """Start ``channel``'s reader loop, and make it the way to ``peer``
        unless ``peer`` is a directory name this endpoint did not dial: a
        client's name is a claim, and a claim must not displace the
        authenticated channel to the service it names."""
        if dialed or peer not in self.addresses:
            self._channels[peer] = channel
        self._readers[channel] = asyncio.ensure_future(self._reader_loop(peer, channel))

    async def _ensure_channel(self, dst: str) -> SecureChannel:
        channel = self._channels.get(dst)
        if channel is not None and not channel.closed:
            return channel
        lock = self._dial_locks.setdefault(dst, asyncio.Lock())
        async with lock:
            channel = self._channels.get(dst)
            if channel is not None and not channel.closed:
                return channel
            return await self._dial(dst)

    async def _dial(self, dst: str) -> SecureChannel:
        """Connect to ``dst`` with bounded exponential backoff.

        While retrying, ``dst`` sits in the backoff set — health
        readiness reports the endpoint not-ready for the duration, so an
        operator sees a flapping upstream instead of silent retries.
        """
        entry = self.addresses.resolve(dst)
        last_error: Exception | None = None
        attempts = RECONNECT_ATTEMPTS
        try:
            for attempt in range(attempts):
                if attempt:
                    self._backoff_peers.add(dst)
                    self.reconnects += 1
                    delay = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2 ** (attempt - 1)))
                    await asyncio.sleep(delay)
                try:
                    channel = await connect_channel(
                        entry.host,
                        entry.port,
                        entry.service_key,
                        self.ara_verify_key,
                        self._name,
                        timeout=CONNECT_TIMEOUT_S,
                    )
                    self._adopt(dst, channel, dialed=True)
                    return channel
                except TransportError as exc:
                    last_error = exc
        finally:
            self._backoff_peers.discard(dst)
        raise TransportError(
            f"{self._name}: could not reach {dst} after "
            f"{attempts} attempts: {last_error}"
        )

    # -- client side -----------------------------------------------------------

    async def call(
        self,
        dst: str,
        msg_type: str,
        payload: Any,
        size_bytes: int | None = None,
        headers: dict[str, Any] | None = None,
        timeout_s: float | None = None,
    ) -> Any:
        """Send a request and await the response payload.

        ``size_bytes`` exists for signature parity with the simulator
        endpoint; the live wire measures itself.
        """
        # the request's channel is the one peer whose response completes it
        channel = await self._channel_to(dst)
        key, reply, sent = self._request(
            channel, msg_type, payload, size_bytes, headers, timeout_s, dst
        )
        self.pending_high_water = max(self.pending_high_water, len(self._pending))
        try:
            await sent
            return await reply
        finally:
            reply.cancel()  # disarms the deadline when the send failed; else a no-op
            self._pending.pop(key, None)

    def completable(
        self, timeout_s: float | None, what: str
    ) -> tuple[asyncio.Future, Callable]:
        """``(future, complete)``: the contract of the simulator endpoint's
        :meth:`~repro.net.rpc.RpcEndpoint.completable`, on asyncio.  With
        ``timeout_s`` None the deadline is the endpoint's ``call_timeout_s``."""
        loop = asyncio.get_running_loop()
        wait: asyncio.Future = loop.create_future()

        def complete(value: Any = None) -> None:
            if not wait.done():
                wait.set_result(value)

        def expire() -> None:
            if not wait.done():
                wait.set_exception(TransportError(f"{self._name}: {what} timed out"))

        deadline = loop.call_later(
            self.call_timeout_s if timeout_s is None else timeout_s, expire
        )
        self._waits.add(wait)

        def settled(_wait: asyncio.Future) -> None:
            deadline.cancel()
            self._waits.discard(wait)
            if not wait.cancelled():
                # mark it retrieved: a waiter that already left (its send
                # failed first) is not an unhandled error
                wait.exception()

        wait.add_done_callback(settled)
        return wait, complete

    async def cast(
        self,
        dst: str,
        msg_type: str,
        payload: Any,
        size_bytes: int | None = None,
        headers: dict[str, Any] | None = None,
    ) -> None:
        """One-way frame (no response expected)."""
        await self._send(dst, msg_type, payload, size_bytes, dict(headers or {}))

    async def _channel_to(self, to) -> SecureChannel:
        """``to`` is a peer's name, or already a channel to it."""
        if self._closed:
            raise TransportError(f"endpoint {self._name} is closed")
        return to if isinstance(to, SecureChannel) else await self._ensure_channel(to)

    async def _send(self, to, msg_type: str, payload: Any, size_bytes, headers) -> None:
        """``to`` is a peer's name, or the channel a request came in or
        goes out on."""
        channel = await self._channel_to(to)
        record = encode_frame(
            TransportMessage(msg_type=msg_type, payload=payload, src=self._name, headers=headers)
        )
        wire_len = await channel.send_record(record)
        self.tx_bytes[channel.peer_name] += wire_len

    # -- dispatch ----------------------------------------------------------------

    async def _reader_loop(self, peer: str, channel: SecureChannel) -> None:
        try:
            while True:
                wire_before = channel.bytes_received
                record = await channel.recv_record()
                self.rx_bytes[peer] += channel.bytes_received - wire_before
                self.rx_frames[peer] += 1
                message = decode_frame(record)
                message.src = channel.peer_name  # trust the handshake, not the frame
                copies = 1 if self.dispatch_fanout is None else self.dispatch_fanout(message)
                for _ in range(copies):
                    self._dispatch(message, channel)
        except MessageLossError:
            obs.record_op("live.record_gap")
            await channel.close()
        except TransportError:
            await channel.close()  # e.g. an undecodable frame: the peer redials
        except asyncio.CancelledError:
            pass
        finally:
            # calls pending on this channel can no longer be answered; they
            # fail at their deadline (or at close()), and a retry redials
            self._readers.pop(channel, None)
            if self._channels.get(peer) is channel:
                del self._channels[peer]

    async def drive(self, gen) -> Any:
        """Step the body ``gen`` inside the awaiting task; returns its value."""
        value = failure = None
        try:
            while True:
                try:
                    target = gen.send(value) if failure is None else gen.throw(failure)
                except StopIteration as stop:
                    return stop.value
                value = failure = None
                if hasattr(target, "__await__"):
                    try:
                        value = await target
                    except Exception as exc:
                        failure = exc
                else:
                    value = target
        finally:
            gen.close()  # a cancelled task unwinds the body's open spans now

    def spawn(self, gen) -> None:
        """Run the body ``gen`` as a task this endpoint owns (cancelled on close)."""
        task = asyncio.ensure_future(self.drive(gen))
        self._handler_tasks.add(task)
        task.add_done_callback(self._handler_tasks.discard)

    _one_way = spawn  # the reader loop only reads: every handler runs as a task
    # a cast is a socket write, so even a body that only casts has to be
    # awaited: "now" is the simulator's privilege
    finish = drive

    # -- shutdown ------------------------------------------------------------------

    async def close(self) -> None:
        """Graceful shutdown: listener, channels, readers, pending waits."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._handler_tasks:
            task.cancel()
        for channel, reader in list(self._readers.items()):
            reader.cancel()
            await channel.close()
        self._channels.clear()
        for wait in list(self._waits):
            if not wait.done():
                wait.set_exception(TransportError(f"endpoint {self._name} closed"))
        await asyncio.sleep(0)  # let cancellations propagate
