"""Substrate ports: what a protocol body may ask of the substrate under it.

Every P3S protocol rule — the DS fan-out, the RS retrieve exchange, the
PBE-TS token request, the anonymizer relay, the §4.3 publish sequence,
the subscriber's match → retrieve → decrypt pipeline — is written once,
in :mod:`repro.core` (and :mod:`repro.mq.broker` for the JMS slice), as
a generator that yields what its *ports* object hands it: ``now()``,
``compute(model_seconds)``, ``sleep(s)``, ``call(...)``, ``cast(...)``,
``completable(timeout_s, what)``, ``offload(fn, *args)``, ``spawn(gen)``;
``serve(type, handler)`` registers a handler, ``drive(gen)`` steps a
body and ``finish(gen)`` steps one that only casts.  (The module sits
in :mod:`repro.net`, beside the endpoints it wraps, because
``mq.broker`` needs it and ``core`` imports ``mq``.)

The contract between a body and its driver is one rule: **a yielded
value the substrate can wait on is waited on; anything else is already
the answer** and goes straight back into the generator.  On the
simulator (:class:`SimPorts`) the waits are :class:`Event` objects —
modelled compute is ``sim.timeout``, a cast is sent at once, offloaded
work runs inline.  On asyncio (:class:`LivePorts`) they are awaitables —
a cast is awaited, offloaded work goes to a thread, and modelled compute
is ``None``: no suspension at all, the real work takes the real time.
So each substrate keeps exactly the suspension points it had when it
carried its own copy of the rules.
"""

from __future__ import annotations

import asyncio
import inspect
import time
from typing import Any, Callable

from ..obs import hooks as obs
from .channel import SecureChannelLayer
from .network import Host
from .rpc import RpcEndpoint
from .simulator import Event

__all__ = ["SimPorts", "LivePorts", "ports_on", "sim_steps"]


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


class _Ports:
    """What both substrates share: the endpoint and its RPC verbs."""

    def __init__(self, endpoint):
        self.endpoint = endpoint

    @property
    def name(self) -> str:
        return self.endpoint.name

    def call(self, dst, msg_type, payload, size_bytes=None, headers=None, timeout_s=None):
        return self.endpoint.call(
            dst, msg_type, payload, size_bytes, headers=headers, timeout_s=timeout_s
        )

    def cast(self, dst, msg_type, payload, size_bytes=None, headers=None):
        return self.endpoint.cast(dst, msg_type, payload, size_bytes, headers=headers)

    def completable(self, timeout_s: float | None, what: str):
        """``(wait, complete)``: yield ``wait`` to park until a handler
        calls ``complete(value)`` — or, past ``timeout_s``, to get a
        :class:`~repro.errors.TransportError` thrown in."""
        return self.endpoint.completable(timeout_s, what)

    def serve(self, msg_type: str, handler: Callable) -> None:
        """Register ``handler(src, message)``; one that returns a
        protocol body is driven the way this substrate drives handlers."""

        def adapted(src, message):
            result = handler(src, message)
            return self._run_handler(result, message) if inspect.isgenerator(result) else result

        self.endpoint.serve(msg_type, adapted)


class SimPorts(_Ports):
    """The discrete-event simulator: waits are :class:`Event` objects and
    modelled compute advances the virtual clock."""

    def __init__(self, endpoint: RpcEndpoint):
        super().__init__(endpoint)
        self.sim = endpoint.sim

    def start(self) -> None:
        self.endpoint.start()

    def now(self) -> float:
        return self.sim.now

    def compute(self, model_seconds: float) -> Event:
        return self.sim.timeout(model_seconds)

    def sleep(self, seconds: float, daemon: bool = False) -> Event:
        return self.sim.timeout(seconds, daemon=daemon)

    def offload(self, fn: Callable, *args, span=None) -> Any:
        # inline, so the span can own the work (per-op attribution)
        with obs.attach(span):
            return fn(*args)

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

    def _run_handler(self, gen, message):
        # a request handler is a process the endpoint waits on; a one-way
        # frame is handled inside the endpoint's dispatch loop, in order
        if message.headers.get("rpc") == "request":
            return sim_steps(gen)
        return self.finish(gen)


def ports_on(host_or_ports):
    """A simulator :class:`Host` stands for :class:`SimPorts` over a fresh
    endpoint on it; anything else is already a ports object."""
    if isinstance(host_or_ports, Host):
        return SimPorts(RpcEndpoint(SecureChannelLayer(host_or_ports)))
    return host_or_ports


class LivePorts(_Ports):
    """asyncio over real sockets: waits are awaitables, time is the
    clock's, and modelled compute is no suspension at all."""

    def __init__(self, endpoint, clock: Callable[[], float] = time.monotonic):
        super().__init__(endpoint)
        self.now = clock

    def start(self) -> None:
        """Nothing to start: an endpoint dials on demand, and a service's
        listener is bound by its shell (:mod:`repro.live.services`)."""

    def compute(self, model_seconds: float) -> None:
        return None

    def sleep(self, seconds: float, daemon: bool = False):
        return asyncio.sleep(seconds)

    def offload(self, fn: Callable, *args, span=None):
        # off the event loop, so the service keeps serving frames; the
        # tracer's span stack belongs to the loop thread and stays there
        return asyncio.to_thread(fn, *args)

    async def drive(self, gen) -> Any:
        """Step ``gen`` inside the awaiting task; returns its value."""
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

    # a cast is a socket write, so even a body that only casts has to be
    # awaited: "now" is the simulator's privilege
    finish = drive

    def spawn(self, gen) -> None:
        self.endpoint.spawn(self.drive(gen))

    def _run_handler(self, gen, message):
        return self.drive(gen)
