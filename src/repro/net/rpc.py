"""Request-response and one-way messaging: the frame rules, written once.

P3S is "request-response" at several points (token requests to the
PBE-TS, payload retrievals from the RS) and one-way everywhere else.
:class:`Endpoint` holds every rule about frames, for both substrates:

* ``call`` frames a request (headers ``rpc`` and ``corr``) and parks on
  a wait that the matching response completes;
* ``serve(msg_type, handler)`` registers the one handler of a type;
* inbound dispatch is three-way — a response completes its pending call
  if it comes from where the request went, a request runs its handler
  and is answered with ``<type>:reply`` to its sender, a one-way frame
  goes to its handler — and a frame of a type nobody serves is dropped;
* a handler that raises :class:`~repro.errors.ReproError` refuses its
  frame: the frame is dropped and counted (``op.rpc.frame_rejected``),
  no reply is sent, and the endpoint keeps serving.

Handlers receive ``(src, message)``; a request handler returns
``(payload, size_bytes)`` for the reply.  A handler may instead return a
protocol body (:mod:`repro.net.ports`) or, on asyncio, an awaitable:
what it yields is waited on the substrate's way.

A subclass supplies only the substrate: how a frame leaves (``_send``),
how a wait is made (``completable``) and how a body runs (``drive``,
``spawn``, and ``_one_way`` for the body of a one-way frame).
:class:`RpcEndpoint` is the discrete-event simulator's;
:class:`repro.live.rpc.LiveRpcEndpoint` is asyncio's.
"""

from __future__ import annotations

import inspect
import itertools
from typing import Any, Callable

from ..errors import NetworkError, ReproError, TransportError
from ..obs import hooks as obs
from .channel import SecureChannelLayer
from .simulator import Event

__all__ = ["Endpoint", "RpcEndpoint"]

_REFUSED = object()  # what a refused frame's handler body returns


def sim_steps(gen):
    """Adapt a protocol body to a simulator process: forward the Events
    it yields, answer everything else on the spot."""
    value = failure = None
    while True:
        try:
            target = gen.send(value) if failure is None else gen.throw(failure)
        except StopIteration as stop:
            return stop.value
        value = failure = None
        if isinstance(target, Event):
            try:
                value = yield target
            except Exception as exc:
                failure = exc
        else:
            value = target


class Endpoint:
    """The RPC rules of one party, whatever substrate carries its frames."""

    _correlation = itertools.count(1)

    def __init__(self) -> None:
        self._handlers: dict[str, Callable] = {}
        # (peer, correlation) -> complete(reply).  The peer is where the
        # request went — a name on the simulator, whose hosts cannot forge
        # a source, the channel it left on over TCP, where a name is a
        # claim — so a third party cannot answer a call it did not get.
        self._pending: dict[tuple[Any, int], Callable] = {}

    def serve(self, msg_type: str, handler: Callable) -> None:
        if msg_type in self._handlers:
            raise NetworkError(f"handler for {msg_type!r} already registered")
        self._handlers[msg_type] = handler

    def _request(self, peer, msg_type, payload, size_bytes, headers, timeout_s, dst=None):
        """Send a request to ``peer`` (named ``dst``): ``(key, reply, sent)``
        — its pending entry, the wait its response completes and what
        sending the frame returned."""
        key = (peer, next(self._correlation))
        reply, complete = self.completable(timeout_s, f"call {msg_type} to {dst or peer}")
        self._pending[key] = complete
        headers = {**(headers or {}), "rpc": "request", "corr": key[1]}
        return key, reply, self._send(peer, msg_type, payload, size_bytes, headers)

    def _dispatch(self, message, sender) -> None:
        """Route one inbound frame; a reply goes back to ``sender``."""
        kind = message.headers.get("rpc")
        if kind == "response":
            correlation = message.headers.get("corr")
            # a peer chose the header: only an int can name a pending call
            if isinstance(correlation, int):
                complete = self._pending.pop((sender, correlation), None)
                if complete is not None:
                    complete(message.payload)
            return
        handler = self._handlers.get(message.msg_type)
        if handler is None:
            return  # P3S services ignore unroutable frames
        if kind == "request":
            self.spawn(self._answer(handler, message, sender))
        else:
            self._one_way(self._handled(handler, message))

    def _handled(self, handler, message):
        """The body that runs ``handler`` on ``message``; :data:`_REFUSED`
        if it refused the frame, which is then dropped and counted."""
        try:
            result = handler(message.src, message)
            if inspect.isgenerator(result):
                return (yield from result)
            return (yield result)  # an awaitable (``async def``) is waited on
        except ReproError:
            # a protocol rule refused the frame (a SUBSCRIBE before CONNECT)
            obs.record_op("rpc.frame_rejected")
            return _REFUSED

    def _answer(self, handler, message, sender):
        """The request-answer body: the handler runs as a body of its own
        (on the simulator, a process: the event order the golden chaos
        reports pin), and what it returns goes back to ``sender``."""
        result = yield self.drive(self._handled(handler, message))
        if result is _REFUSED:
            return
        payload, size_bytes = result
        headers = {"rpc": "response", "corr": message.headers.get("corr")}
        yield self._send(sender, message.msg_type + ":reply", payload, size_bytes, headers)


class RpcEndpoint(Endpoint):
    """The simulator's endpoint, on a :class:`SecureChannelLayer`; its
    dispatch process must be started once via :meth:`start`."""

    def __init__(self, channel: SecureChannelLayer):
        super().__init__()
        self.channel = channel
        self.sim = channel.host.network.sim
        self._started = False

    @property
    def name(self) -> str:
        return self.channel.host.name

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.sim.process(self._dispatch_loop())

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
        key, reply, _ = self._request(dst, msg_type, payload, size_bytes, headers, timeout_s)
        # answered or expired, the correlation is spent
        reply.add_callback(lambda _reply: self._pending.pop(key, None))
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

    _send = cast  # requests and replies leave like any other frame

    def drive(self, gen) -> Event:
        """Run ``gen`` as a process of its own; the returned event fires
        with its return value."""
        return self.sim.process(sim_steps(gen))

    def spawn(self, gen) -> None:
        self.drive(gen)

    def finish(self, gen) -> Any:
        """Run to completion, now, a body with nothing to park on (it
        only casts) — for callers that are not processes."""
        steps = sim_steps(gen)
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value
        raise RuntimeError(f"{self.name}: body parked on an event; drive() it instead")

    # a one-way frame is handled inside the dispatch loop, in arrival order
    _one_way = finish

    def _dispatch_loop(self):
        while True:
            src, message = yield self.channel.receive()
            self._dispatch(message, src)
