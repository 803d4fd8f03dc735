"""``live``: P3S as real TCP services — the simulator-parity demo, a
multi-process deployment (``init``, ``serve-*``, ``run``) and its
telemetry views (``status``, ``top``)."""

from __future__ import annotations

import asyncio
import json

from ..obs import to_openmetrics
from ..obs.aggregate import TelemetryAggregator
from ..obs.slo import SLO_GAUGE_METRICS, SloEngine, default_slos
from ..perf.report import format_size, format_table
from .telemetry import judge, sweep_once, watch, watch_parser


def _print_deliveries(delivered, indent: str = "") -> None:
    for name in sorted(delivered):
        payloads = ", ".join(repr(p) for p in delivered[name]) or "(nothing)"
        print(f"{indent}{name}: {payloads}")


def _cmd_live_demo(args) -> None:
    from ..core.config import P3SConfig
    from ..live.scenario import default_scenario, run_on_live, run_on_simulator

    scenario = default_scenario()
    passes = [("broadcast", P3SConfig())]
    if not args.skip_delegated:
        passes.append(
            ("delegated matching", P3SConfig(delegated_matching=True, match_workers=1))
        )
    for label, config in passes:
        simulated = run_on_simulator(scenario, config)
        live = asyncio.run(run_on_live(scenario, config, expected=simulated))
        print(f"--- {label} ---")
        _print_deliveries(live, indent="  ")
        verdict = "MATCH" if simulated == live else "MISMATCH"
        print(f"  simulator vs live delivery sets: {verdict}")
        if simulated != live:
            raise SystemExit(1)


def _cmd_live_init(args) -> None:
    from ..core.config import P3SConfig
    from ..live.runner import init_state

    config = P3SConfig(
        ds_shards=args.ds_shards,
        rs_shards=args.rs_shards,
        rs_replication=args.replication,
        data_dir=args.data_dir,
    )
    state = init_state(args.state, host=args.host, base_port=args.base_port, config=config)
    plan = ", ".join(f"{name}={port}" for name, port in state.ports.items())
    print(f"wrote deployment state to {args.state} ({plan})")
    if state.plan.sharded:
        print(
            f"sharded topology: {len(state.plan.cluster.ds_names)} DS x "
            f"{len(state.plan.cluster.rs_names)} RS, "
            f"replication {state.plan.cluster.rs_replication}"
        )
    config = state.plan.config  # init_state turns a data dir into the wal backend
    if config.data_dir is not None:
        print(f"durable stores ({config.store_backend}) under {config.data_dir}")


def _cmd_serve(args) -> None:
    from ..live.runner import load_state, serve_role

    # sharded bundles name their services ds0/ds1/rs0/…; --name picks
    # which shard this process serves (default: the classic name)
    name = getattr(args, "name", None) or args.role
    try:
        asyncio.run(serve_role(name, load_state(args.state)))
    except KeyboardInterrupt:
        pass


def _cmd_live_run(args) -> None:
    from ..live.runner import load_state, run_clients
    from ..live.scenario import default_scenario

    _print_deliveries(asyncio.run(run_clients(load_state(args.state), default_scenario())))


def _percentiles(latency: dict) -> str:
    """``p50 …, p95 …`` of a publish→deliver latency summary."""
    return f"p50 {latency['p50_s'] * 1000:.1f} ms, p95 {latency['p95_s'] * 1000:.1f} ms"


def _alerts_line(engine) -> str:
    """The ``SLO alerts:`` footer of ``live status`` and ``live top``."""
    alerts = [
        f"{alert.slo}[{alert.severity} {alert.window}]"
        + "".join(f" {value}" for key, value in alert.labels if key == "service")
        for alert in engine.active_alerts()
    ]
    return "SLO alerts: " + (", ".join(alerts) or "none")


def _print_status(aggregator, engine) -> None:
    latency = aggregator.latency_summary()
    print(format_table(
        ["service", "alive", "ready", "failing checks"],
        aggregator.health_rows(),
        title="live deployment health",
    ))
    ops = aggregator.op_table()
    if ops.strip():
        print()
        print("operation counts by service:")
        print(ops)
    print()
    if latency["count"]:
        print(
            f"publish→deliver latency over {latency['count']} deliveries: "
            f"{_percentiles(latency)}, max {latency['max_s'] * 1000:.1f} ms"
        )
    print(
        f"spans aggregated: {len(aggregator.spans())}, "
        f"dropped by flight recorders: {aggregator.total_dropped_spans}"
    )
    print(_alerts_line(engine))


def _cmd_live_status(args) -> None:
    aggregator = sweep_once(args)
    # judge the sweep against the stock SLOs so alert state rides along in
    # every output form (table footer, JSON, slo_* series)
    engine = judge(aggregator, latency_threshold_s=2.5)
    if args.metrics_out:
        from ..live.telemetry import GAUGE_METRICS

        base = to_openmetrics(aggregator.merged_registry(), gauge_names=GAUGE_METRICS)
        slo_text = to_openmetrics(engine.registry(), gauge_names=SLO_GAUGE_METRICS)
        with open(args.metrics_out, "w") as handle:
            # one exposition: splice the slo_* families before the EOF
            handle.write(base[: -len("# EOF\n")] + slo_text)
    if args.json:
        document = aggregator.to_json()
        document["slo"] = engine.report()
        print(json.dumps(document, indent=2, default=str))
    else:
        _print_status(aggregator, engine)
    if not aggregator.all_ready:
        raise SystemExit(1)


def _cmd_live_top(args) -> None:
    aggregator = TelemetryAggregator(latency_window=args.window)
    engine = SloEngine(default_slos())
    previous: dict[str, float] = {}
    previous_at: float | None = None  # run time of the sweep before this one

    def draw(iteration: int, run_t: float, services: list[str]) -> None:
        nonlocal previous_at
        active = engine.active_alerts()
        elapsed = (run_t - previous_at) if previous_at is not None else None
        rows = []
        for service in services:
            health = aggregator.health(service)
            frames = aggregator.service_counter_total(service, "live.net.rx_frames")
            rate = (
                (frames - previous.get(service, 0.0)) / elapsed
                if elapsed
                else 0.0
            )
            previous[service] = frames
            service_alerts = sum(
                1 for alert in active
                if dict(alert.labels).get("service") == service
            )
            rows.append([
                service,
                "yes" if health.get("ready") else "NO",
                f"{rate:7.1f}",
                f"{aggregator.service_counter_total(service, 'live.rpc.open_connections'):.0f}",
                f"{aggregator.service_counter_total(service, 'live.rpc.in_flight_calls'):.0f}",
                f"{aggregator.service_counter_total(service, 'live.rpc.pending_high_water'):.0f}",
                f"{aggregator.service_counter_total(service, 'live.rpc.reconnects'):.0f}",
                format_size(aggregator.service_counter_total(service, "live.net.tx_bytes")),
                format_size(aggregator.service_counter_total(service, "live.net.rx_bytes")),
                str(service_alerts) if service_alerts else "-",
            ])
        previous_at = run_t
        latency = aggregator.latency_summary()
        print(format_table(
            ["service", "ready", "rx fr/s", "conns", "inflight", "pend hw",
             "reconn", "tx", "rx", "alerts"],
            rows,
            title=f"repro live top — sweep {iteration + 1}/{args.iterations}",
        ))
        if latency["count"]:
            print(
                f"publish→deliver: {_percentiles(latency)} over {latency['count']} "
                f"deliveries (window {args.window})"
            )
        print(
            f"spans: {len(aggregator.spans())} aggregated, "
            f"{aggregator.total_dropped_spans} dropped"
        )
        hot = aggregator.hot_frames(limit=args.hot_frames)
        if hot:
            print(
                "hot frames: "
                + ", ".join(
                    f"{frame} {fraction:.0%}" for frame, _self, fraction in hot
                )
            )
        print(_alerts_line(engine))

    watch(args, aggregator, engine, draw)


def register(sub) -> None:
    live = sub.add_parser("live", help="run P3S as real TCP services")
    live_sub = live.add_subparsers(dest="live_command", required=True)

    live_demo = live_sub.add_parser(
        "demo", help="full scenario over loopback TCP, checked against the simulator"
    )
    live_demo.add_argument(
        "--skip-delegated", action="store_true",
        help="skip the delegated-matching pass (broadcast only)",
    )
    live_demo.set_defaults(func=_cmd_live_demo)

    live_init = live_sub.add_parser(
        "init", help="provision trust material for a multi-process deployment"
    )
    live_init.add_argument("--state", required=True, metavar="FILE")
    live_init.add_argument("--host", default="127.0.0.1")
    live_init.add_argument("--base-port", type=int, default=7341)
    live_init.add_argument(
        "--data-dir", metavar="DIR", default=None,
        help="enable durable persistence: RS/DS state in a WAL store "
             "under DIR/<role>",
    )
    live_init.add_argument(
        "--ds-shards", type=int, default=1, metavar="N",
        help="DS shard count (>1 provisions ds0..dsN-1; see docs/CLUSTER.md)",
    )
    live_init.add_argument(
        "--rs-shards", type=int, default=1, metavar="N",
        help="RS shard count (>1 provisions rs0..rsN-1)",
    )
    live_init.add_argument(
        "--replication", type=int, default=1, metavar="R",
        help="RS items are written to R ring-successor shards (capped at "
             "--rs-shards)",
    )
    live_init.set_defaults(func=_cmd_live_init)

    for role in ("ds", "rs", "pbe-ts", "anon"):
        serve = live_sub.add_parser(
            f"serve-{role}", help=f"serve the {role} from a state bundle"
        )
        serve.add_argument("--state", required=True, metavar="FILE")
        if role in ("ds", "rs"):
            serve.add_argument(
                "--name", default=None, metavar="SHARD",
                help=f"shard to serve from a sharded bundle (e.g. {role}0); "
                     f"default: {role}",
            )
        serve.set_defaults(func=_cmd_serve, role=role)

    live_run = live_sub.add_parser(
        "run", help="drive scenario clients against running serve-* processes"
    )
    live_run.add_argument("--state", required=True, metavar="FILE")
    live_run.set_defaults(func=_cmd_live_run)

    live_status = live_sub.add_parser(
        "status", help="one-shot deployment health + aggregated op totals"
    )
    live_status.add_argument(
        "--state", metavar="FILE", default=None,
        help="poll a running multi-process deployment; omit to stand up an "
             "in-process demo deployment and report on it",
    )
    live_status.add_argument(
        "--json", action="store_true", help="emit the full aggregate as JSON"
    )
    live_status.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the merged registry as OpenMetrics text to PATH",
    )
    live_status.set_defaults(func=_cmd_live_status)

    live_top = watch_parser(
        live_sub, "top", "refreshing per-service throughput / queue / latency view",
        "--window", type=int, default=256,
        help="rolling publish→deliver latency window (deliveries)",
    )
    live_top.add_argument(
        "--hot-frames", type=int, default=5, metavar="N",
        help="profiler hot frames shown per sweep (0 disables the panel)",
    )
    live_top.set_defaults(func=_cmd_live_top)
