"""A deterministic consistent-hash ring with virtual nodes.

Placement must agree across *processes* (the live deployment routes from
several OS processes; the simulator and live substrates must produce the
same shard for the same GUID), so every hash here is SHA-256 — never
Python's ``hash()``, whose per-process randomization (PYTHONHASHSEED)
would scatter one key across as many owners as there are processes.

Each node contributes ``vnodes`` points on a 64-bit ring; a key belongs
to the node owning the first point at or after the key's own point
(wrapping).  Virtual nodes smooth the load: at the default 64 vnodes the
largest shard's share of the keyspace stays within a small constant
factor of the mean (property-tested in ``tests/cluster/test_ring.py``).
Replication walks the ring clockwise collecting *distinct* nodes — the
"write to N successors" set.

Rings are immutable; :class:`~repro.cluster.router.ClusterMap` builds a
new one when the set of live DS shards changes.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable

__all__ = ["DEFAULT_VNODES", "HashRing", "hash_key"]

DEFAULT_VNODES = 64

_RING_SPACE = 1 << 64


def _digest64(data: bytes) -> int:
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def hash_key(key: bytes | str) -> int:
    """A key's point on the 64-bit ring (SHA-256, process-independent)."""
    if isinstance(key, str):
        key = key.encode("utf-8")
    return _digest64(b"p3s-ring-key:" + key)


def _vnode_point(node: str, index: int) -> int:
    return _digest64(f"p3s-ring-node:{node}:{index}".encode("utf-8"))


class HashRing:
    """Immutable consistent-hash ring over named nodes."""

    def __init__(self, nodes: Iterable[str], vnodes: int = DEFAULT_VNODES):
        names = list(dict.fromkeys(nodes))  # dedupe, keep caller order
        if not names:
            raise ValueError("a HashRing needs at least one node")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.nodes: tuple[str, ...] = tuple(names)
        self.vnodes = vnodes
        points: list[tuple[int, str]] = []
        for node in self.nodes:
            for index in range(vnodes):
                points.append((_vnode_point(node, index), node))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    # -- placement -----------------------------------------------------------

    def owner(self, key: bytes | str) -> str:
        """The node owning ``key`` (first vnode at/after the key's point)."""
        index = bisect.bisect_left(self._points, hash_key(key)) % len(self._points)
        return self._owners[index]

    def successors(self, key: bytes | str, n: int) -> tuple[str, ...]:
        """The first ``n`` *distinct* nodes clockwise from ``key``.

        This is the replica set for N-way replication: the owner plus its
        ``n - 1`` ring successors.  Capped at the node count.
        """
        if n < 1:
            raise ValueError(f"need n >= 1 replicas, got {n}")
        want = min(n, len(self.nodes))
        start = bisect.bisect_left(self._points, hash_key(key))
        out: list[str] = []
        for offset in range(len(self._points)):
            node = self._owners[(start + offset) % len(self._points)]
            if node not in out:
                out.append(node)
                if len(out) == want:
                    break
        return tuple(out)

    # -- load accounting ------------------------------------------------------

    def keyspace_share(self) -> dict[str, float]:
        """Fraction of the 64-bit keyspace each node owns (arcs, not samples)."""
        share: dict[str, int] = {node: 0 for node in self.nodes}
        previous = self._points[-1] - _RING_SPACE  # wraparound arc
        for point, owner in zip(self._points, self._owners):
            share[owner] += point - previous
            previous = point
        return {node: arc / _RING_SPACE for node, arc in sorted(share.items())}
