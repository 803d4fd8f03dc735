#!/usr/bin/env python3
"""Private multiparty chat over P3S — a §8 "innovative use".

"We are also exploring innovative uses of the basic privacy-preserving
pub-sub middleware such as private multiparty chat..."

Each chat room is a value of the ``room`` metadata attribute; membership
is a CP-ABE attribute.  The infrastructure relays every message but:

* the DS/RS cannot read messages or room names (PBE + CP-ABE),
* non-members who somehow learned a GUID still cannot decrypt (CP-ABE),
* nobody — including the token server — can tell who is in which room.

This example also demonstrates the *embedded token source* configuration
(paper §8): chat clients mint their PBE tokens locally, so even the
plaintext room subscription never leaves the client.

Run:  python examples/private_chat.py
"""

from repro.core import P3SConfig, P3SSystem, Recorder
from repro.pbe import AttributeSpec, Interest, MetadataSchema


def main() -> None:
    schema = MetadataSchema(
        [
            AttributeSpec("room", ("deal-team", "war-room", "watercooler", "ops")),
            AttributeSpec("kind", ("chat", "presence")),
        ]
    )
    system = P3SSystem(P3SConfig(schema=schema))

    # Chat members: room membership is both an interest (PBE) and an
    # access attribute (CP-ABE).  Tokens are minted locally (§8).
    members = {
        "ann": "deal-team",
        "raj": "deal-team",
        "eve": "watercooler",  # eve is NOT on the deal team
    }
    with Recorder() as recorder:  # what the token server opens
        for user, room in members.items():
            subscriber = system.add_subscriber(
                user, attributes={f"member:{room}"}, embedded_token_source=True
            )
            system.subscribe(subscriber, Interest({"room": room, "kind": "chat"}))
        system.run()

    # Everyone also publishes through their own publisher endpoint.
    senders = {user: system.add_publisher(f"{user}-out") for user in members}
    system.run()

    def say(user: str, room: str, text: str):
        return senders[user].publish(
            {"room": room, "kind": "chat"},
            f"{user}: {text}".encode(),
            policy=f"member:{room}",
            ttl_s=600.0,
        )

    say("ann", "deal-team", "term sheet v3 is up")
    say("raj", "deal-team", "redlines by tonight")
    say("eve", "watercooler", "coffee machine is fixed!")
    system.run()

    print("=== Chat transcripts ===")
    for user in members:
        lines = [d.payload.decode() for d in system.subscribers[user].stats.deliveries]
        print(f"{user:4s} ({members[user]:11s}) sees: {lines}")
    # eve saw every encrypted frame but never the deal-team messages
    eve = system.subscribers["eve"]
    assert all(b"term sheet" not in d.payload for d in eve.stats.deliveries)
    assert eve.stats.metadata_seen == 3

    print("\n=== What the infrastructure knows ===")
    print(f"PBE-TS predicates observed: {recorder.seen('request')} "
          "(embedded token sources → nothing)")
    assert recorder.seen("request") == []
    print(f"DS relayed {sum(system.ds.publications_by_publisher.values())} messages "
          "without seeing rooms or text")
    print(f"RS stores {system.rs.item_count} sealed messages it cannot read")


if __name__ == "__main__":
    main()
