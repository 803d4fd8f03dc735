"""Client-side routing: the :class:`ClusterMap`.

The ClusterMap is the one routing artifact both substrates share.  It is
built once at deployment bring-up, attached to the ARA's
:class:`~repro.core.ara.ServiceDirectory` (``directory.cluster``), and
therefore reaches every publisher, subscriber, and DS by reference —
credentials embed the directory, so routing around a dead DS shard
(:meth:`ClusterMap.remove_ds`, and :meth:`ClusterMap.add_ds` when it
beats again) reaches all parties without re-issuing anything.

Placement policy (see ``docs/CLUSTER.md`` for the rationale):

* a **publication** belongs to the DS shard owning its GUID — GUIDs are
  uniformly random, so load balances and the assignment leaks nothing a
  single broker would not see;
* an **RS item** belongs to the first ``rs_replication`` distinct ring
  successors of its GUID — the DS writes to all of them, retrieval walks
  them in order inside the existing bounded retry loop;
* **token registrations and subscriptions** go to *every* DS shard: any
  shard may own the next publication, so each must be able to match.
  Matching compute per publication still lands on exactly one shard,
  which is what scales.

A single-node deployment is a map of one DS and one RS: every lookup
answers ``"ds"``/``"rs"``, so there is one routing rule, not two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ring import DEFAULT_VNODES, HashRing

__all__ = ["ClusterMap", "shard_names", "shard_topology"]


def shard_names(prefix: str, n: int) -> list[str]:
    """Shard naming convention: 1 shard keeps the classic bare name
    (``"ds"``/``"rs"`` — store paths, pickles, and old tests unchanged),
    K>1 shards are ``"ds0".."dsK-1"``."""
    if n <= 1:
        return [prefix]
    return [f"{prefix}{i}" for i in range(n)]


@dataclass
class ClusterMap:
    """Mutable cluster topology with cached consistent-hash rings.

    ``rs_public_keys`` carries each RS shard's PKE public key — retrieval
    requests are encrypted *to a specific replica*, so failover needs the
    key of whichever replica it talks to next.
    """

    ds_names: list[str]
    rs_names: list[str]
    rs_replication: int = 1
    vnodes: int = DEFAULT_VNODES
    rs_public_keys: dict[str, object] = field(default_factory=dict)
    _ds_ring: HashRing | None = field(default=None, repr=False, compare=False)
    _rs_ring: HashRing | None = field(default=None, repr=False, compare=False)

    @property
    def ds_ring(self) -> HashRing:
        if self._ds_ring is None:
            self._ds_ring = HashRing(self.ds_names, self.vnodes)
        return self._ds_ring

    @property
    def rs_ring(self) -> HashRing:
        if self._rs_ring is None:
            self._rs_ring = HashRing(self.rs_names, self.vnodes)
        return self._rs_ring

    # -- placement -------------------------------------------------------------

    def ds_owner(self, guid: bytes) -> str:
        return self.ds_ring.owner(guid)

    def rs_replicas(self, guid: bytes) -> tuple[str, ...]:
        return self.rs_ring.successors(guid, self.rs_replication)

    # -- DS failure routing (propagates by reference through the directory) -----

    def add_ds(self, name: str) -> None:
        if name not in self.ds_names:
            self.ds_names.append(name)
            self._ds_ring = None

    def remove_ds(self, name: str) -> None:
        """Route new publications away from a failed DS shard.  The last
        shard is never removed — with everything down there is nowhere
        better to route, and retries need a target."""
        if name in self.ds_names and len(self.ds_names) > 1:
            self.ds_names.remove(name)
            self._ds_ring = None

    # -- reporting -------------------------------------------------------------

    def describe(self) -> dict:
        """JSON-friendly topology summary for `repro cluster status`."""
        return {
            "ds_shards": list(self.ds_names),
            "rs_shards": list(self.rs_names),
            "rs_replication": self.rs_replication,
            "vnodes": self.vnodes,
            "ds_keyspace_share": {
                k: round(v, 4) for k, v in self.ds_ring.keyspace_share().items()
            },
            "rs_keyspace_share": {
                k: round(v, 4) for k, v in self.rs_ring.keyspace_share().items()
            },
        }


def shard_topology(config) -> ClusterMap:
    """The :class:`ClusterMap` of a deployment config (1/1 shards: the
    one-node map of ``"ds"`` and ``"rs"``)."""
    rs_names = shard_names("rs", config.rs_shards)
    return ClusterMap(
        ds_names=shard_names("ds", config.ds_shards),
        rs_names=rs_names,
        rs_replication=max(1, min(config.rs_replication, len(rs_names))),
    )
