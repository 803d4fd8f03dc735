"""Horizontal scaling for P3S: sharded, replicated DS/RS clusters.

The paper's deployment is one process per role; this package removes
that ceiling without touching any privacy gadget, exploiting two
structural facts of the P3S design:

* **DS matching is oblivious** — a dissemination server evaluates PBE
  tokens against PBE ciphertexts and learns nothing it would not learn
  as the sole broker, so the matching hot path partitions freely;
* **RS items are GUID-addressed** — repository content is a flat
  key→ciphertext map keyed by unguessable GUIDs, the textbook input for
  consistent hashing and replication.

Modules:

========================  ====================================================
:mod:`~repro.cluster.ring`        deterministic consistent-hash ring (vnodes)
:mod:`~repro.cluster.membership`  heartbeat membership + failure detection
:mod:`~repro.cluster.router`      the :class:`ClusterMap` + client-side routing
========================  ====================================================

Both substrates consume the same :class:`~repro.cluster.router.ClusterMap`
(carried in the ARA's :class:`~repro.core.ara.ServiceDirectory`), so a
sharded simulator deployment and a sharded live deployment route
identically — see ``docs/CLUSTER.md``.
"""

from .membership import MembershipTable
from .router import ClusterMap

__all__ = ["ClusterMap", "MembershipTable"]
