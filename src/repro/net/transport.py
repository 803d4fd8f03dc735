"""The frame a handler sees, on either substrate.

P3S components speak a small request/response + one-way messaging
vocabulary — ``serve`` a message type, ``call`` a peer and wait for the
reply, ``cast`` a one-way frame — over :class:`repro.net.rpc.RpcEndpoint`
(the discrete-event simulator) or :class:`repro.live.rpc.LiveRpcEndpoint`
(asyncio TCP).  What the protocol code is written against is the ports
object wrapping either one: see :mod:`repro.net.ports`.

Handlers on both substrates receive ``(src, message)`` where ``message``
exposes ``msg_type``, ``payload`` and ``headers`` — the simulator hands
its :class:`~repro.net.network.Message`, the live stack hands a
:class:`TransportMessage` decoded from the wire frame.  Request handlers
return ``(payload, size_bytes)``; the substrate frames and returns the
response.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["TransportMessage"]


@dataclass
class TransportMessage:
    """One delivered frame, as seen by a handler.

    Structurally compatible with :class:`repro.net.network.Message`
    (``msg_type`` / ``payload`` / ``headers`` / ``src``) so handler
    logic written for the simulator reads live frames unchanged.
    """

    msg_type: str
    payload: Any
    src: str = ""
    headers: dict[str, Any] = field(default_factory=dict)
