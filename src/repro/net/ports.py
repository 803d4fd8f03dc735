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
carried its own copy of the rules.  The steppers themselves belong to
the endpoints (:mod:`repro.net.rpc`), which drive handler bodies too.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable

from ..obs import hooks as obs
from .channel import SecureChannelLayer
from .network import Host
from .rpc import RpcEndpoint
from .simulator import Event

__all__ = ["SimPorts", "LivePorts", "ports_on"]


class _Ports:
    """What both substrates share: the endpoint, its RPC verbs and its
    body runners."""

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
        protocol body is driven the way this substrate drives bodies."""
        self.endpoint.serve(msg_type, handler)

    def drive(self, gen):
        """Step ``gen`` in a wait of its own; the wait ends with its value."""
        return self.endpoint.drive(gen)

    def spawn(self, gen) -> None:
        self.endpoint.spawn(gen)

    def finish(self, gen):
        """Run a body that only casts: at once on the simulator; on asyncio
        the caller awaits what this returns."""
        return self.endpoint.finish(gen)


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
