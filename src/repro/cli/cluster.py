"""``cluster status``: the sharded topology, membership, per-shard load
and keyspace shares."""

from __future__ import annotations

import json

from ..perf.report import format_table


def _cmd_cluster_status(args) -> None:
    if args.state:
        # topology from a provisioned multi-process bundle (no I/O to the
        # services — this reads the signed registration material)
        from ..live.runner import load_state

        state = load_state(args.state)
        status = {
            **state.plan.topology(),
            "roles": list(state.plan.service_names),
            "ports": dict(state.ports),
        }
    else:
        # no bundle: stand up an in-process *simulated* sharded system,
        # run the demo scenario through it, and report live counters —
        # membership, per-shard items/publications, keyspace shares
        from ..core import P3SConfig, P3SSystem
        from ..live import scenario as sc
        from ..pbe import Interest

        config = P3SConfig(
            ds_shards=args.ds_shards,
            rs_shards=args.rs_shards,
            rs_replication=args.replication,
        )
        alice = sc.SubscriberSpec(
            "alice", frozenset({"clearance"}), (Interest({"attr00": "v01"}),)
        )
        publications = tuple(
            sc.PublicationSpec(
                sc.demo_metadata(attr00="v01"), f"cluster demo {tick}".encode(), "clearance"
            )
            for tick in range(args.publications)
        )
        system = P3SSystem(config)
        try:
            sc.play_on_simulator(system, sc.Scenario((alice,), publications))
            status = system.cluster_status()
        finally:
            system.close()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True, default=str))
        return
    print(f"sharded: {status.get('sharded')}")
    for key in ("ds_shards", "rs_shards", "roles"):
        if key in status:
            print(f"{key}: {', '.join(status[key])}")
    if "membership" in status:
        rows = [
            [m["name"], m["role"], "yes" if m["alive"] else "NO",
             str(m["failures"]), str(m["recoveries"])]
            for m in status["membership"]
        ]
        print(format_table(
            ["member", "role", "alive", "failures", "recoveries"],
            rows, title="cluster membership",
        ))
    for key in ("rs_items", "ds_publications"):
        if key in status:
            parts = ", ".join(f"{k}={v}" for k, v in sorted(status[key].items()))
            print(f"{key}: {parts}")
    cluster = status.get("cluster")
    if cluster:
        print(f"replication: {cluster['rs_replication']}, vnodes: {cluster['vnodes']}")
        for ring in ("ds_keyspace_share", "rs_keyspace_share"):
            if ring in cluster:
                parts = ", ".join(
                    f"{k}={v:.2%}" for k, v in sorted(cluster[ring].items())
                )
                print(f"{ring}: {parts}")


def register(sub) -> None:
    cluster = sub.add_parser(
        "cluster", help="sharded-topology tools (see docs/CLUSTER.md)"
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)
    cluster_status = cluster_sub.add_parser(
        "status",
        help="topology + membership report: from a live state bundle "
             "(--state), or by running a demo workload through an "
             "in-process sharded simulation",
    )
    cluster_status.add_argument(
        "--state", metavar="FILE", default=None,
        help="read topology from a `live init` bundle instead of simulating",
    )
    cluster_status.add_argument("--ds-shards", type=int, default=2, metavar="N")
    cluster_status.add_argument("--rs-shards", type=int, default=2, metavar="N")
    cluster_status.add_argument("--replication", type=int, default=2, metavar="R")
    cluster_status.add_argument(
        "--publications", type=int, default=6, metavar="N",
        help="demo publications to route through the simulated cluster",
    )
    cluster_status.add_argument("--json", action="store_true", help="emit JSON")
    cluster_status.set_defaults(func=_cmd_cluster_status)
