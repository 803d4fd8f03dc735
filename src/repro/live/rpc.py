"""Request/response RPC over live secure channels.

:class:`LiveRpcEndpoint` is the asyncio implementation of the
substrate contract in :mod:`repro.net.transport` — the same
``serve`` / ``call`` / ``cast`` surface as the simulator's
:class:`repro.net.rpc.RpcEndpoint`, with the same frame-header
conventions (``rpc`` / ``corr`` / ``reply_to``), so P3S protocol logic
reads identically on both substrates.

Connection management:

* **dialing** — outbound connections are established on demand from the
  :class:`AddressBook`, with bounded exponential-backoff retries
  (``backoff_base * 2^attempt``, capped), then kept open and multiplexed;
* **serving** — services call :meth:`start_server`; every accepted
  connection is handshaken and registered under the client's name, so a
  service can *push* frames to connected clients (the DS delivering
  metadata broadcasts) over the same connection the client opened;
* **timeouts** — every ``call`` has a deadline
  (:class:`~repro.errors.TransportError` on expiry); handshakes and
  dials have their own;
* **graceful shutdown** — :meth:`close` stops the listener, closes every
  channel, cancels reader tasks, and fails pending calls instead of
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
import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

from ..crypto.signing import VerifyKey
from ..errors import MessageLossError, NetworkError, ReproError, TransportError
from ..net.transport import TransportMessage
from ..obs import hooks as obs
from .channel import SecureChannel, ServerIdentity, ServiceKey, accept_channel, connect_channel
from .wire import decode_frame, encode_frame

__all__ = ["AddressBook", "LiveRpcEndpoint"]


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

    def register(self, name: str, host: str, port: int, service_key: ServiceKey) -> None:
        self._entries[name] = _Entry(host, port, service_key)

    def resolve(self, name: str) -> _Entry:
        entry = self._entries.get(name)
        if entry is None:
            raise TransportError(f"no address for {name!r} in the service directory")
        return entry

    def names(self) -> list[str]:
        return sorted(self._entries)

    def to_dict(self) -> dict[str, tuple[str, int]]:
        return {name: (e.host, e.port) for name, e in self._entries.items()}


class LiveRpcEndpoint:
    """RPC + one-way messaging endpoint for one live P3S party."""

    _correlation = itertools.count(1)

    def __init__(
        self,
        name: str,
        addresses: AddressBook,
        ara_verify_key: VerifyKey | None = None,
        identity: ServerIdentity | None = None,
        call_timeout_s: float = 15.0,
        connect_timeout_s: float = 5.0,
        reconnect_attempts: int = 5,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 1.0,
    ):
        self._name = name
        self.addresses = addresses
        self.ara_verify_key = ara_verify_key
        self.identity = identity
        self.call_timeout_s = call_timeout_s
        self.connect_timeout_s = connect_timeout_s
        self.reconnect_attempts = reconnect_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._handlers: dict[str, Callable] = {}
        self._channels: dict[str, SecureChannel] = {}
        self._readers: dict[str, asyncio.Task] = {}
        self._dial_locks: dict[str, asyncio.Lock] = {}
        self._pending: dict[int, asyncio.Future] = {}
        self._handler_tasks: set[asyncio.Task] = set()
        self._server: asyncio.base_events.Server | None = None
        self._closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
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
        return sum(1 for channel in self._channels.values() if not channel.closed)

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
            "dial_backoff_active": self.dial_backoff_active,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "tx_bytes": dict(self.tx_bytes),
            "rx_bytes": dict(self.rx_bytes),
            "rx_frames": dict(self.rx_frames),
        }

    # -- server side -----------------------------------------------------------

    def serve(self, msg_type: str, handler: Callable) -> None:
        """Register a handler; may be sync or ``async def``.

        Request handlers return ``(payload, size_bytes)`` — same contract
        as the simulator substrate; one-way handlers return ``None``.
        """
        if msg_type in self._handlers:
            raise NetworkError(f"handler for {msg_type!r} already registered")
        self._handlers[msg_type] = handler

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
        self._adopt(channel.peer_name, channel)

    # -- connection management -------------------------------------------------

    def _adopt(self, peer: str, channel: SecureChannel) -> None:
        """Track a live channel and start its reader loop."""
        old = self._readers.pop(peer, None)
        if old is not None:
            old.cancel()
        self._channels[peer] = channel
        task = asyncio.ensure_future(self._reader_loop(peer, channel))
        self._readers[peer] = task

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
        try:
            for attempt in range(self.reconnect_attempts):
                if attempt:
                    self._backoff_peers.add(dst)
                    self.reconnects += 1
                    delay = min(self.backoff_cap_s, self.backoff_base_s * (2 ** (attempt - 1)))
                    await asyncio.sleep(delay)
                try:
                    channel = await connect_channel(
                        entry.host,
                        entry.port,
                        entry.service_key,
                        self.ara_verify_key,
                        self._name,
                        timeout=self.connect_timeout_s,
                    )
                    self._adopt(dst, channel)
                    return channel
                except TransportError as exc:
                    last_error = exc
        finally:
            self._backoff_peers.discard(dst)
        raise TransportError(
            f"{self._name}: could not reach {dst} after "
            f"{self.reconnect_attempts} attempts: {last_error}"
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
        correlation = next(self._correlation)
        reply, _ = self.completable(timeout_s, f"call {msg_type} to {dst}")
        self._pending[correlation] = reply
        self.pending_high_water = max(self.pending_high_water, len(self._pending))
        frame_headers = {
            **(headers or {}),
            "rpc": "request",
            "corr": correlation,
            "reply_to": self._name,
        }
        try:
            await self._send_frame(dst, msg_type, payload, frame_headers)
            return await reply
        finally:
            reply.cancel()  # disarms the deadline when the send failed; else a no-op
            self._pending.pop(correlation, None)

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

        def settled(_wait: asyncio.Future) -> None:
            deadline.cancel()
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
        await self._send_frame(dst, msg_type, payload, dict(headers or {}))

    async def _send_frame(
        self, dst: str, msg_type: str, payload: Any, headers: dict[str, Any]
    ) -> None:
        if self._closed:
            raise TransportError(f"endpoint {self._name} is closed")
        channel = await self._ensure_channel(dst)
        record = encode_frame(
            TransportMessage(msg_type=msg_type, payload=payload, src=self._name, headers=headers)
        )
        wire_len = await channel.send_record(record)
        self.bytes_sent += len(record)
        self.tx_bytes[dst] += wire_len

    # -- dispatch ----------------------------------------------------------------

    async def _reader_loop(self, peer: str, channel: SecureChannel) -> None:
        try:
            while True:
                wire_before = channel.bytes_received
                record = await channel.recv_record()
                self.bytes_received += len(record)
                self.rx_bytes[peer] += channel.bytes_received - wire_before
                self.rx_frames[peer] += 1
                message = decode_frame(record)
                message.src = channel.peer_name  # trust the handshake, not the frame
                copies = 1 if self.dispatch_fanout is None else self.dispatch_fanout(message)
                for _ in range(copies):
                    self._dispatch(message)
        except MessageLossError:
            obs.record_op("live.record_gap")
            await channel.close()
        except (TransportError, asyncio.CancelledError):
            pass
        finally:
            # pending calls are correlated, not per-channel: a redial may
            # still carry their retries, so only close() fails them
            if self._channels.get(peer) is channel:
                del self._channels[peer]

    def _dispatch(self, message: TransportMessage) -> None:
        kind = message.headers.get("rpc")
        if kind == "response":
            correlation = message.headers.get("corr")
            future = self._pending.pop(correlation, None)
            if future is not None and not future.done():
                future.set_result(message.payload)
            return
        if kind == "request":
            self.spawn(self._handle_request(message))
            return
        handler = self._handlers.get(message.msg_type)
        if handler is None:
            return  # unrouted one-way frame; drop (same as the simulator)
        try:
            result = handler(message.src, message)
        except ReproError:
            # a protocol rule refused the frame (SUBSCRIBE before
            # CONNECT): drop it; the peer's reader loop keeps running
            obs.record_op("live.frame_rejected")
            return
        if asyncio.iscoroutine(result):
            self.spawn(result)

    async def _handle_request(self, message: TransportMessage) -> None:
        handler = self._handlers.get(message.msg_type)
        if handler is None:
            return  # unknown RPC; P3S services ignore unroutable requests
        result = handler(message.src, message)
        if asyncio.iscoroutine(result):
            result = await result
        payload, _size = result
        reply_to = message.headers.get("reply_to", message.src)
        await self._send_frame(
            reply_to,
            message.msg_type + ":reply",
            payload,
            {"rpc": "response", "corr": message.headers.get("corr")},
        )

    def spawn(self, coro) -> None:
        """Run ``coro`` as a task this endpoint owns (cancelled on close)."""
        task = asyncio.ensure_future(coro)
        self._handler_tasks.add(task)
        task.add_done_callback(self._handler_tasks.discard)

    # -- shutdown ------------------------------------------------------------------

    async def close(self) -> None:
        """Graceful shutdown: listener, channels, readers, pending calls."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._handler_tasks:
            task.cancel()
        for task in self._readers.values():
            task.cancel()
        for channel in list(self._channels.values()):
            await channel.close()
        self._channels.clear()
        for future in self._pending.values():
            if not future.done():
                future.set_exception(TransportError(f"endpoint {self._name} closed"))
        self._pending.clear()
        await asyncio.sleep(0)  # let cancellations propagate
