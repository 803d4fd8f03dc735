"""Backend equivalence: memory vs wal deliver identical bytes.

The storage engine changes durability, never protocol behaviour: the
same scenario run over each backend must produce byte-identical delivery
sets at every subscriber, identical retrieval outcomes, and the same
HBC-observable counters.  (The delegated-matching analogue lives in
``tests/par/test_equivalence.py``; this is the persistence analogue.)
"""

import os

import pytest

from repro.core import P3SConfig, P3SSystem
from repro.pbe import AttributeSpec, Interest, MetadataSchema
from repro.store.engine import BACKENDS

SCHEMA = MetadataSchema(
    [AttributeSpec("topic", ("a", "b", "c", "d")), AttributeSpec("prio", ("lo", "hi"))]
)

PUBLICATIONS = [
    ({"topic": "a", "prio": "hi"}, b"alpha high", "org:acme"),
    ({"topic": "b", "prio": "lo"}, b"beta low", "org:acme"),
    ({"topic": "a", "prio": "lo"}, b"alpha low", "org:other"),
    ({"topic": "c", "prio": "hi"}, b"gamma high", "org:acme"),
]


def run_scenario(backend: str, root: str, delegated: bool = False):
    config = P3SConfig(
        schema=SCHEMA,
        store_backend=backend,
        data_dir=os.path.join(root, backend) if backend != "memory" else None,
        store_key=bytes(range(32)) if backend != "memory" else None,
        delegated_matching=delegated,
        match_workers=1 if delegated else 0,
    )
    system = P3SSystem(config)
    try:
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "a"}))
        bob = system.add_subscriber("bob", {"org:acme", "org:other"})
        system.subscribe(bob, Interest({"prio": "hi"}))
        system.run()
        publisher = system.add_publisher("pub")
        system.run()
        for metadata, payload, policy in PUBLICATIONS:
            publisher.publish(metadata, payload, policy=policy)
        system.run()
        deliveries = {
            name: tuple(sorted(d.payload for d in sub.stats.deliveries))
            for name, sub in system.subscribers.items()
        }
        counters = {
            "stored": system.rs.stored_count,
            "failed_retrievals": system.rs.store.failed_retrievals,
            "published": system.ds.published_count,
            "delivered": system.ds.delivered_count,
        }
        return deliveries, counters
    finally:
        system.rs.store.close()
        system.ds.store.close()
        system.ds.close_match_pool()


class TestBackendEquivalence:
    def test_all_backends_deliver_identical_bytes(self, tmp_path):
        results = {
            backend: run_scenario(backend, str(tmp_path)) for backend in BACKENDS
        }
        baseline_deliveries, baseline_counters = results["memory"]
        assert baseline_deliveries["alice"]  # the scenario is not vacuous
        assert baseline_deliveries["bob"]
        for backend in BACKENDS:
            deliveries, counters = results[backend]
            assert deliveries == baseline_deliveries, backend
            assert counters == baseline_counters, backend

    def test_delegated_matching_equivalent_across_backends(self, tmp_path):
        results = {
            backend: run_scenario(backend, str(tmp_path), delegated=True)[0]
            for backend in BACKENDS
        }
        assert all(results[backend] == results["memory"] for backend in BACKENDS)
        assert any(results["memory"].values())
