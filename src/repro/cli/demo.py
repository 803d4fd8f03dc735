"""``demo``: one publication end to end; ``attacks``: the two §6.1 token
attacks, run against the real HVE."""

from __future__ import annotations

from ..crypto import PairingGroup
from ..obs import Observability, to_openmetrics
from ..pbe import ANY, HVE, AttributeSpec, Interest, MetadataSchema


def _cmd_demo(args) -> None:
    from ..core import P3SConfig, P3SSystem

    observability = None
    if args.trace or args.trace_out or args.metrics_out:
        observability = Observability()

    schema = MetadataSchema([
        AttributeSpec("topic", ("alpha", "beta", "gamma", "delta")),
    ])
    system = P3SSystem(P3SConfig(schema=schema, obs=observability))
    try:
        alice = system.add_subscriber("alice", {"clearance"})
        system.subscribe(alice, Interest({"topic": "alpha"}))
        system.run()
        publisher = system.add_publisher("pub")
        system.run()
        record = publisher.publish({"topic": "alpha"}, b"hello, private world", policy="clearance")
        system.run()
        (delivery,) = system.deliveries_for(record)
        print(f"delivered {delivery.payload!r} in {delivery.delivered_at - record.submitted_at:.3f}s "
              f"(simulated); PBE-TS saw sources {sorted(set(system.pbe_ts.observed_sources))}")
        if observability is not None:
            if args.trace:
                print()
                print(observability.format_tree())
                print()
                print(observability.format_ops())
            if args.trace_out:
                observability.write_spans(args.trace_out)
                print(f"wrote spans to {args.trace_out}")
            if args.metrics_out:
                with open(args.metrics_out, "w", encoding="utf-8") as handle:
                    handle.write(to_openmetrics(observability.metrics))
                print(f"wrote metrics to {args.metrics_out}")
    finally:
        if observability is not None:
            observability.uninstall()


def _cmd_attacks(args) -> None:
    from ..privacy import token_accumulation_attack, token_probing_attack

    group = PairingGroup("TOY")
    schema = MetadataSchema([
        AttributeSpec("topic", ("a", "b", "c", "d")),
        AttributeSpec("prio", ("lo", "hi")),
    ])
    hve = HVE(group)
    public, master = hve.setup(schema.alphabet_sizes)

    secret = Interest({"topic": "c", "prio": ANY})
    token = hve.gen_token(master, schema.encode_interest(secret))
    recovered = token_probing_attack(hve, public, token, schema)
    print(f"token-probing attack: victim interest {secret.describe()!r} "
          f"→ recovered {recovered.describe()!r}")

    accumulated = {
        (spec.name, value): hve.gen_token(master, schema.encode_interest(Interest({spec.name: value})))
        for spec in schema.attributes for value in spec.values
    }
    metadata = {"topic": "b", "prio": "hi"}
    ciphertext = hve.encrypt(public, schema.encode_metadata(metadata), b"guid")
    print(f"token-accumulation attack: published metadata {metadata} "
          f"→ recovered {token_accumulation_attack(hve, accumulated, ciphertext, schema)}")


def register(sub) -> None:
    demo = sub.add_parser("demo", help="one publication end to end")
    demo.add_argument(
        "--trace", action="store_true",
        help="print the causal span tree and crypto-op summary",
    )
    demo.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write spans as JSON lines to PATH",
    )
    demo.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the metrics registry as OpenMetrics text to PATH",
    )
    demo.set_defaults(func=_cmd_demo)

    sub.add_parser("attacks", help="run the §6.1 token attacks").set_defaults(func=_cmd_attacks)
