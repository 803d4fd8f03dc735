"""Simulated network: hosts, egress bandwidth, latency, a wire trace.

The model matches the paper's performance analysis (§6.2): sending a
message of size ``m`` from one node to another costs a *serialization
time* ``ser(m) = m/ℬ`` on the sender's egress interface (messages queue
behind each other — this is exactly how the DS and RS become bottlenecks
in the paper's throughput model) plus a *fixed latency* ``ℓ``.

Per-destination bandwidth overrides reproduce the paper's topology where
the DS→RS hop is a 100 Mbps LAN while client links run at 10 Mbps.

Every transmission is appended to :attr:`Network.trace` — the
*eavesdropper's view*: source, destination, size and a coarse wire label
(never plaintext content).  The privacy analysis consumes this trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import RoutingError
from ..obs import hooks as obs
from .simulator import Simulator, Store

__all__ = ["Message", "Host", "Network", "WireRecord"]

DEFAULT_BANDWIDTH_BPS = 10_000_000  # 10 Mbps — Table 1
DEFAULT_LATENCY_S = 0.045  # 45 ms — Table 1


@dataclass
class Message:
    """One application message on the wire.

    ``payload`` is an arbitrary Python object (already-encrypted bytes in
    P3S); ``size_bytes`` is the *wire* size used for serialization-time
    accounting; ``wire_label`` is what an eavesdropper could tell about
    the frame (e.g. ``"tls"``), never its content.
    """

    msg_type: str
    payload: Any
    size_bytes: int
    src: str = ""
    dst: str = ""
    wire_label: str = "tls"
    headers: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class WireRecord:
    """One eavesdropper-visible transmission."""

    time: float
    src: str
    dst: str
    size_bytes: int
    wire_label: str


class Host:
    """A network endpoint with a bandwidth-limited egress interface."""

    def __init__(self, network: "Network", name: str, bandwidth_bps: float):
        self.network = network
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.inbox: Store = network.sim.store()
        self._egress_free_at = 0.0
        # per-destination overrides (e.g. the DS→RS LAN hop)
        self._link_bandwidth: dict[str, float] = {}
        self.bytes_sent = 0
        self.bytes_received = 0

    def set_link_bandwidth(self, dst: str, bandwidth_bps: float) -> None:
        self._link_bandwidth[dst] = bandwidth_bps

    def link_bandwidth(self, dst: str) -> float:
        return self._link_bandwidth.get(dst, self.bandwidth_bps)

    def send(self, dst: str, message: Message) -> float:
        """Queue ``message`` for transmission; returns predicted arrival time."""
        return self.network.transmit(self, dst, message)

    def receive(self):
        """Event yielding the next ``(src, Message)`` pair."""
        return self.inbox.get()


class Network:
    """All hosts plus the transmission logic and the eavesdropper trace."""

    def __init__(
        self,
        sim: Simulator,
        default_bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        latency_s: float = DEFAULT_LATENCY_S,
    ):
        self.sim = sim
        self.default_bandwidth_bps = default_bandwidth_bps
        self.latency_s = latency_s
        self.hosts: dict[str, Host] = {}
        self.trace: list[WireRecord] = []
        self._fault_injector: Callable[[str, str, Message, float], list[float]] | None = None

    def add_host(self, name: str, bandwidth_bps: float | None = None) -> Host:
        if name in self.hosts:
            raise RoutingError(f"duplicate host name {name!r}")
        host = Host(self, name, bandwidth_bps or self.default_bandwidth_bps)
        self.hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise RoutingError(f"unknown host {name!r}") from None

    def set_fault_injector(
        self, injector: Callable[[str, str, Message, float], list[float]] | None
    ) -> None:
        """Chaos seam (see :mod:`repro.chaos`): rewrite delivery scheduling.

        The injector is consulted once per transmission with
        ``(src, dst, message, base_delay)`` and returns the list of
        delivery delays for this frame: ``[base_delay]`` passes it
        through untouched, ``[]`` drops it on the wire, a larger delay
        holds it back (delay/reorder), and multiple entries deliver
        duplicate copies.  Serialization, the wire trace, and byte
        accounting on the sender are unaffected — faults happen *after*
        the frame left the egress interface, exactly where a lossy
        network would lose it.
        """
        self._fault_injector = injector

    def transmit(self, src: Host, dst_name: str, message: Message) -> float:
        """Serialize on ``src``'s egress, then deliver after the fixed latency.

        Returns the arrival time (even for dropped messages, for symmetry).
        """
        dst = self.host(dst_name)
        message.src = src.name
        message.dst = dst_name
        bandwidth = src.link_bandwidth(dst_name)
        serialization = (message.size_bytes * 8) / bandwidth
        start = max(self.sim.now, src._egress_free_at)
        tx_done = start + serialization
        src._egress_free_at = tx_done
        arrival = tx_done + self.latency_s
        src.bytes_sent += message.size_bytes
        self.trace.append(
            WireRecord(self.sim.now, src.name, dst_name, message.size_bytes, message.wire_label)
        )
        active = obs.active()
        if active is not None:
            active.metrics.inc(
                "net.bytes", message.size_bytes, src=src.name, dst=dst_name
            )
            if start > self.sim.now:
                # time this frame waits behind earlier frames on the
                # sender's egress — the DS/RS bottleneck signal
                active.metrics.observe(
                    "net.egress_wait_s", start - self.sim.now, host=src.name
                )
        base_delay = arrival - self.sim.now
        if self._fault_injector is None:
            delays = (base_delay,)
        else:
            delays = self._fault_injector(src.name, dst_name, message, base_delay)
        for delay in delays:
            self._schedule_delivery(src.name, dst, message, delay)
        return arrival

    def _schedule_delivery(self, src_name: str, dst: Host, message: Message, delay: float) -> None:
        def deliver() -> None:
            dst.bytes_received += message.size_bytes
            active = obs.active()
            if active is not None:
                active.metrics.observe(
                    "net.inbox_depth", len(dst.inbox), host=dst.name
                )
            dst.inbox.put((src_name, message))

        self.sim.schedule(delay, deliver)
