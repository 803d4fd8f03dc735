"""Minimal-movement migration when the ring changes.

Consistent hashing's whole point: adding one shard to an *n*-shard ring
relocates ~1/(n+1) of the keyspace and nothing else.  This module makes
that concrete for P3S state:

* **RS items** move via :func:`handoff_items` — engine-backed iteration
  over every shard's :class:`~repro.core.rs.RepositoryStore`, copying
  each item to replicas that newly own it and evicting it from shards
  that no longer do.  Items are opaque ``(GUID, ciphertext, clocks)``
  tuples; the handoff never decrypts anything and learns nothing beyond
  what the RS already sees (§6.1).
* **DS registrations** move via :func:`copy_registrations` — token
  registrations and subscriptions are replicated to *every* DS shard
  (any shard may own the next publication), so a new DS shard simply
  receives a full copy from any existing shard; nothing is deleted.

:func:`plan_moves` / :func:`moved_fraction` are the audit tools: the
property tests use them to prove minimality (adding a shard to *n*
moves ≤ ~1/n of keys, with slack for vnode granularity).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import HashRing

__all__ = [
    "HandoffReport",
    "copy_registrations",
    "handoff_items",
    "moved_fraction",
    "plan_moves",
]


def plan_moves(
    keys, old_ring: HashRing, new_ring: HashRing, replication: int = 1
) -> dict:
    """Keys whose replica set changes, mapped to ``(old, new)`` tuples."""
    moves = {}
    for key in keys:
        old = old_ring.successors(key, replication)
        new = new_ring.successors(key, replication)
        if old != new:
            moves[key] = (old, new)
    return moves


def moved_fraction(keys, old_ring: HashRing, new_ring: HashRing) -> float:
    """Fraction of ``keys`` whose *primary* owner changes between rings."""
    keys = list(keys)
    if not keys:
        return 0.0
    moved = sum(1 for key in keys if old_ring.owner(key) != new_ring.owner(key))
    return moved / len(keys)


@dataclass
class HandoffReport:
    """What one rebalance actually did (surfaced in `cluster status`)."""

    examined: int = 0
    copied: int = 0
    evicted: int = 0

    def as_dict(self) -> dict:
        return {
            "examined": self.examined,
            "copied": self.copied,
            "evicted": self.evicted,
        }


def handoff_items(stores: dict, ring: HashRing, replication: int = 1) -> HandoffReport:
    """Re-home every RS item onto ``ring``'s replica sets.

    ``stores`` maps shard name → :class:`~repro.core.rs.RepositoryStore`
    and must cover every node on ``ring`` (a joining shard contributes
    an empty store).  For each item held anywhere, the item is copied to
    replicas that now own it but lack it, then evicted from holders that
    no longer own it — so only the minimal key range moves, and both the
    in-memory index and the durable engine (WAL/sqlite write-through)
    are updated on both sides.

    Copy-before-evict ordering means a crash mid-handoff can leave an
    item *over*-replicated, never under-replicated.
    """
    report = HandoffReport()
    for name, store in stores.items():
        for guid in list(store.guids()):
            report.examined += 1
            replicas = ring.successors(guid, replication)
            record = store.export_item(guid)
            for target in replicas:
                target_store = stores.get(target)
                if target_store is None:
                    raise KeyError(f"ring node {target!r} has no store in handoff")
                if target != name and not target_store.contains(guid):
                    target_store.import_item(guid, *record)
                    report.copied += 1
            if name not in replicas:
                store.evict(guid)
                report.evicted += 1
    return report


def copy_registrations(source_ds, target_ds) -> int:
    """Replicate one DS shard's token/subscription tables onto another.

    Used when a DS shard joins: tokens and subscriptions live on every
    shard, so the joiner bootstraps from any existing shard instead of
    waiting for every subscriber to re-register.  Returns how many
    entries were copied.
    """
    copied = 0
    for client, token in list(source_ds.registered_tokens):
        if (client, token) not in target_ds.registered_tokens:
            target_ds.register_token(client, token)
            copied += 1
    for topic, clients in list(source_ds.subscriptions.items()):
        for client in list(clients):
            if client not in target_ds.subscriptions[topic]:
                # the subscriber is connected to the *cluster*; mark it
                # connected here so _subscribe (and its durable
                # write-through) accepts the copy before the client's own
                # CONNECT cast lands
                target_ds.connected_clients.add(client)
                target_ds._subscribe(client, topic)
                copied += 1
    return copied
