"""Discrete-event simulation substrate: event loop, network, channels, RPC.

The physical testbed of the paper (hosts on 10/100 Mbps links with 45 ms
latency) is reproduced as a deterministic simulation; message sizes come
from real serialized ciphertexts, so serialization times are
byte-accurate.
"""
