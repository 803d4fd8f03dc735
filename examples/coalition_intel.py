#!/usr/bin/env python3
"""Coalition intelligence sharing — the paper's military scenario (§1).

"Intelligence analysts in a coalition environment may be interested in
receiving updates on information that they have agreed to share, but the
knowledge that country A is interested in topic B may compromise country
A's strategy."

Demonstrates three P3S capabilities on a coalition feed:

1. interest privacy across coalition partners,
2. releasability policies via CP-ABE (REL USA/GBR vs coalition-wide),
3. publisher-intent deletion: a time-sensitive item expires at the RS
   and late fetches fail (§4.3 Deletion).

Run:  python examples/coalition_intel.py
"""

from repro.core import P3SConfig, P3SSystem, Recorder
from repro.pbe import ANY, AttributeSpec, Interest, MetadataSchema


def main() -> None:
    schema = MetadataSchema(
        [
            AttributeSpec("region", ("north", "south", "east", "west")),
            AttributeSpec("domain", ("sigint", "humint", "imagery", "cyber")),
        ]
    )
    # strict deletion: T_G = 0 ("strict interpretation of deleting based
    # on publisher's intent"), GC sweeps every 0.2 s
    system = P3SSystem(P3SConfig(schema=schema, t_g=0.0, rs_gc_interval_s=0.2))

    analysts = {
        "usa-analyst": ({"country:usa"}, Interest({"region": "east", "domain": "sigint"})),
        "gbr-analyst": ({"country:gbr"}, Interest({"region": "east", "domain": ANY})),
        "fra-analyst": ({"country:fra"}, Interest({"domain": "cyber"})),
    }
    with Recorder() as recorder:  # what the token server opens
        for name, (attributes, interest) in analysts.items():
            subscriber = system.add_subscriber(name, attributes=attributes)
            system.subscribe(subscriber, interest)
        system.run()

    fusion_cell = system.add_publisher("fusion-cell")
    system.run()

    # Item 1: REL USA/GBR only — France's cyber analyst must not read it
    # even if the interest matched.
    rel_two_eyes = fusion_cell.publish(
        {"region": "east", "domain": "sigint"},
        b"INTERCEPT: eastern comms net re-keyed",
        policy="country:usa or country:gbr",
        ttl_s=3600.0,
    )
    # Item 2: coalition-wide cyber alert.
    coalition_wide = fusion_cell.publish(
        {"region": "west", "domain": "cyber"},
        b"ALERT: wiper campaign against logistics",
        policy="country:usa or country:gbr or country:fra",
        ttl_s=3600.0,
    )
    system.run()

    print("=== Deliveries ===")
    for name in analysts:
        payloads = [d.payload.decode() for d in system.subscribers[name].stats.deliveries]
        print(f"{name:12s} → {payloads}")
    assert len(system.deliveries_for(rel_two_eyes)) == 2  # usa + gbr
    assert len(system.deliveries_for(coalition_wide)) == 1  # fra

    print("\n=== Interest privacy across partners ===")
    print("PBE-TS saw predicates (unlinkable to countries):")
    for _, _, interest in recorder.seen("request"):
        print(f"   {interest.to_json()}")
    assert set(recorder.seen("source", system.pbe_ts.name)) == {"anon"}
    print("No coalition partner can tell that USA watches eastern SIGINT.")

    # === Deletion based on publisher intent ===
    print("\n=== Time-sensitive item with TTL = 2 s ===")
    flash = fusion_cell.publish(
        {"region": "east", "domain": "imagery"},
        b"FLASH: convoy at grid 31U",
        policy="country:usa or country:gbr",
        ttl_s=2.0,
    )
    system.run()
    print(f"t={system.now:6.2f}s  RS holds flash item: {system.rs.holds(flash.guid)}")
    system.run(until=system.now + 5.0)
    print(f"t={system.now:6.2f}s  RS holds flash item: {system.rs.holds(flash.guid)} "
          f"(garbage-collected {system.rs.expired_count} item(s))")
    assert not system.rs.holds(flash.guid)

    # A late subscriber whose interest would have matched cannot fetch it.
    late = system.add_subscriber("late-analyst", attributes={"country:usa"})
    system.subscribe(late, Interest({"domain": "imagery"}))
    system.run()
    print("late-analyst subscribed after expiry → "
          f"deliveries: {len(late.stats.deliveries)} (item is gone for good)")


if __name__ == "__main__":
    main()
