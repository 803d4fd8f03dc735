"""Request-response helper over the simulated network.

P3S is "request-response" at several points (token requests to the
PBE-TS, payload retrievals from the RS).  :class:`RpcEndpoint` gives a
host:

* ``call(dst, msg_type, payload, size)`` — returns an event that fires
  with the response payload;
* ``serve(msg_type, handler)`` — registers a handler; handlers may return
  a value directly or a generator (run as a simulator process) for
  handlers that themselves need simulated time;
* a dispatch process that must be started once via ``start()``.

Handlers receive ``(src, request_message)`` and their return value is
``(payload, size_bytes)`` for the response frame.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from ..errors import NetworkError, TransportError
from .channel import SecureChannelLayer
from .simulator import Event

__all__ = ["RpcEndpoint"]


class RpcEndpoint:
    """RPC and one-way messaging on top of a :class:`SecureChannelLayer`."""

    _correlation = itertools.count(1)

    def __init__(self, channel: SecureChannelLayer):
        self.channel = channel
        self.sim = channel.host.network.sim
        self._handlers: dict[str, Callable] = {}
        self._pending: dict[int, Callable] = {}  # correlation -> complete(reply)
        self._started = False

    @property
    def name(self) -> str:
        return self.channel.host.name

    # -- server side ---------------------------------------------------------

    def serve(self, msg_type: str, handler: Callable) -> None:
        if msg_type in self._handlers:
            raise NetworkError(f"handler for {msg_type!r} already registered")
        self._handlers[msg_type] = handler

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.sim.process(self._dispatch_loop())

    # -- client side -----------------------------------------------------------

    def call(
        self,
        dst: str,
        msg_type: str,
        payload: Any,
        size_bytes: int,
        headers: dict[str, Any] | None = None,
        timeout_s: float | None = None,
    ) -> Event:
        """Send a request; the returned event fires with the response payload.

        ``headers`` are merged into the RPC frame headers — the carrier
        for simulation-side metadata such as the observability span
        context (none of it is accounted in ``size_bytes``).

        ``timeout_s`` bounds the wait (:meth:`completable`), mirroring
        the live endpoint's ``call_timeout_s``.  Without it a request or
        response lost on the wire would park the caller forever — the
        timeout is what turns a chaos drop into a retryable error.
        """
        correlation = next(self._correlation)
        reply, complete = self.completable(timeout_s, f"call {msg_type} to {dst}")
        self._pending[correlation] = complete
        # answered or expired, the correlation is spent
        reply.add_callback(lambda _reply: self._pending.pop(correlation, None))
        self.channel.send(
            dst,
            msg_type,
            payload,
            size_bytes,
            headers={
                **(headers or {}),
                "rpc": "request",
                "corr": correlation,
                "reply_to": self.name,
            },
        )
        return reply

    def completable(self, timeout_s: float | None, what: str) -> tuple[Event, Callable]:
        """A wait that a later frame completes: ``(event, complete)``.

        ``complete(value)`` fires the event (once; later calls are
        no-ops).  With ``timeout_s`` the event instead fails with
        :class:`TransportError` when nothing completed it in time —
        the RPC reply wait and the JMS client's PUBACK wait are both
        this.
        """
        wait = self.sim.event()

        def complete(value: Any = None) -> None:
            if not wait.triggered:
                wait.succeed(value)

        if timeout_s is not None:
            def _expire() -> None:
                if not wait.triggered:
                    wait.fail(TransportError(f"{self.name}: {what} timed out"))

            # non-daemon on purpose: a parked waiter is not in the event
            # queue, so if the expiry did not hold the run open, run()
            # would declare quiescence with the wait still outstanding
            # and the timeout would never fire.  Once completed the
            # expiry is a no-op.
            self.sim.schedule(timeout_s, _expire)
        return wait, complete

    def cast(
        self,
        dst: str,
        msg_type: str,
        payload: Any,
        size_bytes: int,
        headers: dict[str, Any] | None = None,
    ) -> float:
        """One-way message (no response expected)."""
        return self.channel.send(dst, msg_type, payload, size_bytes, headers=headers)

    # -- dispatch ----------------------------------------------------------------

    def _dispatch_loop(self):
        while True:
            src, message = yield self.channel.receive()
            kind = message.headers.get("rpc")
            if kind == "response":
                complete = self._pending.pop(message.headers.get("corr"), None)
                if complete is not None:
                    complete(message.payload)
            elif kind == "request":
                self.sim.process(self._handle_request(src, message))
            else:
                handler = self._handlers.get(message.msg_type)
                if handler is None:
                    continue  # unrouted one-way message; drop
                result = handler(src, message)
                if hasattr(result, "send"):  # generator handler
                    self.sim.process(result)

    def _handle_request(self, src: str, message):
        handler = self._handlers.get(message.msg_type)
        if handler is None:
            return  # unknown RPC; P3S services ignore unroutable requests
        result = handler(src, message)
        if hasattr(result, "send"):  # generator handler: run inside this process
            result = yield self.sim.process(result)
        payload, size_bytes = result
        self.channel.send(
            message.headers.get("reply_to", src),
            message.msg_type + ":reply",
            payload,
            size_bytes,
            headers={"rpc": "response", "corr": message.headers.get("corr")},
        )
