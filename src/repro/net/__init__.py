"""Discrete-event simulation substrate: event loop, network, channels, RPC.

The physical testbed of the paper (hosts on 10/100 Mbps links with 45 ms
latency) is reproduced as a deterministic simulation; message sizes come
from real serialized ciphertexts, so serialization times are
byte-accurate.
"""

from .simulator import Event, Process, Simulator, Store
from .network import DEFAULT_BANDWIDTH_BPS, DEFAULT_LATENCY_S, Host, Message, Network, WireRecord
from .channel import SecureChannelLayer, TLS_RECORD_OVERHEAD
from .rpc import RpcEndpoint
from .transport import TransportMessage

__all__ = [
    "TransportMessage",
    "Simulator",
    "Event",
    "Process",
    "Store",
    "Network",
    "Host",
    "Message",
    "WireRecord",
    "DEFAULT_BANDWIDTH_BPS",
    "DEFAULT_LATENCY_S",
    "SecureChannelLayer",
    "TLS_RECORD_OVERHEAD",
    "RpcEndpoint",
]
