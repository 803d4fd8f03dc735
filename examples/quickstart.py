#!/usr/bin/env python3
"""Quickstart: one publisher, two subscribers, one private publication.

Demonstrates the whole P3S pipeline in ~40 lines of user code:
registration with the ARA, token-based subscription, PBE-matched
dissemination, anonymous retrieval, and CP-ABE access control.

Run:  python examples/quickstart.py
"""

from repro.core import P3SConfig, P3SSystem, Recorder
from repro.obs import Observability
from repro.pbe import ANY, AttributeSpec, Interest, MetadataSchema


def main() -> None:
    # 1. The metadata space — fixed and known to every participant.
    schema = MetadataSchema(
        [
            AttributeSpec("topic", ("sports", "finance", "weather", "politics")),
            AttributeSpec("priority", ("routine", "urgent")),
        ]
    )
    obs = Observability()  # optional: trace every hop + count crypto ops
    system = P3SSystem(P3SConfig(schema=schema, obs=obs))

    # 2. Subscribers register with the ARA (getting CP-ABE keys for their
    #    attributes) and obtain PBE tokens for their interests.  The
    #    recorder takes down what the token server opens, for step 5.
    alice = system.add_subscriber("alice", attributes={"org:acme"})
    bob = system.add_subscriber("bob", attributes={"org:acme"})
    with Recorder() as recorder:
        system.subscribe(alice, Interest({"topic": "finance", "priority": ANY}))
        system.subscribe(bob, Interest({"topic": "weather"}))
        system.run()
    print(f"alice holds {len(alice.tokens)} PBE token(s); bob holds {len(bob.tokens)}")

    # 3. A publisher publishes one item: metadata is PBE-encrypted, the
    #    payload is CP-ABE-encrypted under an access policy.
    carol = system.add_publisher("carol")
    system.run()
    record = carol.publish(
        metadata={"topic": "finance", "priority": "urgent"},
        payload=b"ACME Q3 earnings leak imminent",
        policy="org:acme",
        ttl_s=3600.0,
    )
    system.run()

    # 4. Only alice's interest matched; only she retrieved and decrypted.
    for name, subscriber in system.subscribers.items():
        for delivery in subscriber.stats.deliveries:
            print(f"{name} received: {delivery.payload.decode()} "
                  f"(end-to-end {delivery.delivered_at - record.submitted_at:.3f}s simulated)")
        if not subscriber.stats.deliveries:
            print(f"{name} received nothing "
                  f"(saw {subscriber.stats.metadata_seen} encrypted broadcast(s))")

    # 5. What the infrastructure learned:
    print(f"DS saw {system.ds.publications_by_publisher['carol']} publication(s) from carol "
          f"— sizes only, no metadata, no content")
    predicates = [interest.to_json() for _, _, interest in recorder.seen("request")]
    sources = sorted(set(recorder.seen("source", system.pbe_ts.name)))
    print(f"PBE-TS saw predicates {predicates} from sources {sources} (anonymized)")
    print(f"RS stored {system.rs.stored_count} encrypted payload(s), "
          f"served {system.rs.request_count(record.guid)} anonymous request(s)")

    # 6. The observability subsystem recorded the whole causal story:
    #    one span tree per root operation, plus crypto-op counters.
    print()
    print(obs.summary())
    obs.uninstall()


if __name__ == "__main__":
    main()
