#!/usr/bin/env python3
"""M&A deal feed — the paper's commercial motivating scenario (§1).

"Parties pursuing a merger and acquisition (M&A) deal may be interested
in receiving updates on various topics, but the knowledge that party X is
interested in topic Y may tip the hand of X. ... the broker or other
parties who are not interested in 'Lehman Brothers' should not receive
updated information about Lehman Brothers."

This example runs a deal-news feed with three competing investment firms
subscribed to different target companies, then *audits every component*
to show that no party — broker, repository, token server, eavesdropper,
or rival firm — learned who is interested in what.

Run:  python examples/ma_deal_feed.py
"""

from repro.core import P3SConfig, P3SSystem, Recorder
from repro.pbe import ANY, AttributeSpec, Interest, MetadataSchema

COMPANIES = ("lehman", "acme", "globex", "initech")


def main() -> None:
    schema = MetadataSchema(
        [
            AttributeSpec("company", COMPANIES),
            AttributeSpec("event", ("rumor", "filing", "board-vote", "close")),
        ]
    )
    system = P3SSystem(P3SConfig(schema=schema))
    recorder = Recorder()  # takes down what each server opens, for the audit

    # Three rival firms; each quietly watches a different target.
    # All are accredited deal participants (CP-ABE attribute "accredited").
    watchlist = {"firm-alpha": "lehman", "firm-beta": "acme", "firm-gamma": "lehman"}
    for firm, target in watchlist.items():
        subscriber = system.add_subscriber(firm, attributes={"accredited"})
        system.subscribe(subscriber, Interest({"company": target, "event": ANY}))
    with recorder:
        system.run()

    # A newswire publishes deal events; "need to know" = accredited only.
    newswire = system.add_publisher("newswire")
    system.run()
    events = [
        ({"company": "lehman", "event": "rumor"}, b"LEH: acquirer circling at $12/share"),
        ({"company": "acme", "event": "filing"}, b"ACME: S-4 filed, stock-for-stock"),
        ({"company": "globex", "event": "close"}, b"GBX: deal closed at $4.1B"),
        ({"company": "lehman", "event": "filing"}, b"LEH: 13-D shows 8% stake"),
    ]
    records = [
        newswire.publish(metadata, payload, policy="accredited", ttl_s=3600.0)
        for metadata, payload in events
    ]
    with recorder:
        system.run()

    print("=== Deliveries (need-to-know respected) ===")
    for firm in watchlist:
        subscriber = system.subscribers[firm]
        headlines = [d.payload.decode().split(":")[0] for d in subscriber.stats.deliveries]
        print(f"{firm:12s} watching {watchlist[firm]:8s} → received {headlines}")
    assert [d.payload for d in system.subscribers["firm-beta"].stats.deliveries] == [
        b"ACME: S-4 filed, stock-for-stock"
    ]

    print("\n=== Privacy audit ===")
    # The broker (DS) fan-outs ciphertext to everyone — it cannot tell who
    # cares about Lehman; it only counts frames and sizes.
    print(f"DS observed: {dict(system.ds.publications_by_publisher)} publications, "
          f"{len(recorder.seen('frame', system.ds.name))} ciphertext frames (sizes only)")
    # The token server saw three predicates — but from 'anon', unlinkable
    # to firms.
    requesters = recorder.seen("source", system.pbe_ts.name)
    print(f"PBE-TS observed predicates: {[i.to_json() for _, _, i in recorder.seen('request')]}")
    print(f"PBE-TS observed requesters: {sorted(set(requesters))}")
    assert set(requesters) == {"anon"}
    # The repository served payloads to anonymous requesters; the Globex
    # item was never requested (nobody watched Globex) — and the RS can
    # see that, but not what the item was about.
    lehman_fetches = sum(system.rs.request_count(r.guid) for r in (records[0], records[3]))
    print(f"RS: lehman items fetched {lehman_fetches}× (by whom: unknown), "
          f"globex item fetched {system.rs.request_count(records[2].guid)}×")
    # Rival firms received every encrypted broadcast but matched only
    # their own targets — and learned nothing from the misses.
    beta = system.subscribers["firm-beta"]
    print(f"firm-beta saw {beta.stats.metadata_seen} encrypted broadcasts, "
          f"matched {beta.stats.matches}, learned nothing from the other "
          f"{beta.stats.non_matches}")


if __name__ == "__main__":
    main()
