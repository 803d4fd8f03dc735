"""Command-line interface: regenerate experiments from the terminal.

::

    python -m repro table1              # Table 1 with measured constants
    python -m repro fig8                # latency figure (table + ASCII plot)
    python -m repro fig9                # throughput, f = 5%
    python -m repro fig10               # throughput, f = 50%
    python -m repro calibrate -p PAPER  # measure crypto constants
    python -m repro demo                # one publication end to end
    python -m repro attacks             # the two §6.1 token attacks, live
    python -m repro live demo           # full scenario over real TCP sockets
    python -m repro live init --state p3s.state   # provision a multi-process deployment
    python -m repro live serve-ds --state p3s.state   # one service per process
    python -m repro live run --state p3s.state        # drive clients against them
    python -m repro live status --state p3s.state     # health + op totals (or in-process demo)
    python -m repro live top --state p3s.state        # refreshing per-service throughput view
    python -m repro live init --state p3s.state --data-dir ./p3s-data   # durable deployment
    python -m repro live init --state p3s.state --ds-shards 2 --rs-shards 2 --replication 2
    python -m repro live serve-ds --state p3s.state --name ds1   # serve one shard
    python -m repro cluster status --json             # sharded topology + membership
    python -m repro store inspect ./p3s-data/rs       # keyless store-file dump
    python -m repro chaos run --seed 7 --profile ci   # seeded fault-injection run
    python -m repro chaos run --seed 7 --minimize     # shrink a failing schedule
    python -m repro chaos profiles                    # list fault profiles
    python -m repro slo report --chaos-seed 7 --json  # SLO/alert report for a chaos run
    python -m repro slo report --state p3s.state      # judge a live deployment's SLOs
    python -m repro slo watch                         # refreshing burn-rate/alert view
    python -m repro prof record --out demo.prof.json  # span-attributed demo profile
    python -m repro prof report demo.prof.json        # hot-frames report
    python -m repro prof diff before.prof.json after.prof.json  # self-time deltas
    python -m repro prof top --state p3s.state        # merged live-service hot frames
    python -m repro perf gate                         # perf-regression gate
    python -m repro perf gate --smoke                 # history floor checks only
"""

from __future__ import annotations

import argparse
import contextlib

from .perf.calibrate import calibrate
from .perf.latency import baseline_latency, latency_ratio, p3s_latency
from .perf.params import MESSAGE_SIZES, PAPER_PARAMS
from .perf.plot import ascii_plot
from .perf.report import format_rate, format_seconds, format_size, format_table, series_table
from .perf.throughput import baseline_throughput, p3s_throughput, throughput_ratio

__all__ = ["main"]


def _cmd_table1(args) -> None:
    result = calibrate(args.params, vector_bits=40, policy_attributes=10, repetitions=1)
    rows = [
        ["P_E (PBE-encrypted metadata)", "10 KB", format_size(result.encrypted_metadata_bytes)],
        ["enc_P (PBE encrypt)", "≈30 ms", format_seconds(result.pbe_encrypt_s)],
        ["t_PBE (PBE match)", "≈38 ms", format_seconds(result.pbe_match_s)],
        ["enc_C (CP-ABE encrypt)", "≈3 ms", format_seconds(result.cpabe_encrypt_s)],
        ["dec_C (CP-ABE decrypt)", "≈12 ms", format_seconds(result.cpabe_decrypt_s)],
        ["pairing (1 op)", "—", format_seconds(result.pairing_s)],
        ["token (20 positions)", "—", format_size(result.token_bytes)],
    ]
    print(format_table(
        ["parameter", "paper", f"measured ({args.params})"],
        rows,
        title="Table 1 — measured model parameters",
    ))


def _cmd_fig8(args) -> None:
    base = [baseline_latency(m, PAPER_PARAMS).total for m in MESSAGE_SIZES]
    p3s = [p3s_latency(m, PAPER_PARAMS).total for m in MESSAGE_SIZES]
    ratio = [latency_ratio(m, PAPER_PARAMS) for m in MESSAGE_SIZES]
    print(series_table(
        MESSAGE_SIZES,
        {"baseline": base, "P3S": p3s, "ratio(b)": ratio},
        formatters={"ratio(b)": ".2f"},
        title="Fig. 8 — end-to-end latency, ℬ = 10 Mbps",
    ))
    print()
    print(ascii_plot(
        MESSAGE_SIZES,
        {"baseline": base, "P3S": p3s},
        title="Fig. 8(a)",
        y_label="latency (s), log scale",
    ))


def _cmd_fig9(args, match_fraction: float = 0.05, label: str = "Fig. 9") -> None:
    params = PAPER_PARAMS.with_(match_fraction=match_fraction)
    base = [baseline_throughput(m, params).total for m in MESSAGE_SIZES]
    p3s = [p3s_throughput(m, params).total for m in MESSAGE_SIZES]
    ratio = [throughput_ratio(m, params) for m in MESSAGE_SIZES]
    print(series_table(
        MESSAGE_SIZES,
        {"baseline": base, "P3S": p3s, "ratio(b)": ratio},
        formatters={"baseline": format_rate, "P3S": format_rate, "ratio(b)": ".3f"},
        title=f"{label} — throughput, f = {match_fraction:.0%}",
    ))
    print()
    print(ascii_plot(
        MESSAGE_SIZES,
        {"baseline": base, "P3S": p3s},
        title=f"{label}(a)",
        y_label="publications/s, log scale",
    ))


def _cmd_fig10(args) -> None:
    _cmd_fig9(args, match_fraction=0.5, label="Fig. 10")


def _cmd_calibrate(args) -> None:
    result = calibrate(
        args.params, vector_bits=args.vector_bits, policy_attributes=10, repetitions=args.reps
    )
    for field_name in (
        "pairing_s", "pbe_encrypt_s", "pbe_match_s", "pbe_token_gen_s",
        "cpabe_encrypt_s", "cpabe_decrypt_s", "pke_op_s",
    ):
        print(f"{field_name:18s} {format_seconds(getattr(result, field_name))}")
    print(f"{'P_E':18s} {format_size(result.encrypted_metadata_bytes)}")
    print(f"{'c_A overhead':18s} {format_size(result.cpabe_overhead_bytes)}")


def _cmd_demo(args) -> None:
    from .core import P3SConfig, P3SSystem
    from .pbe import ANY, AttributeSpec, Interest, MetadataSchema

    observability = None
    if args.trace or args.trace_out or args.metrics_out:
        from .obs import Observability

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
                observability.write_metrics(args.metrics_out)
                print(f"wrote metrics to {args.metrics_out}")
    finally:
        if observability is not None:
            observability.uninstall()


def _cmd_attacks(args) -> None:
    from .crypto import PairingGroup
    from .pbe import ANY, AttributeSpec, HVE, Interest, MetadataSchema
    from .privacy import token_accumulation_attack, token_probing_attack

    group = PairingGroup("TOY")
    schema = MetadataSchema([
        AttributeSpec("topic", ("a", "b", "c", "d")),
        AttributeSpec("prio", ("lo", "hi")),
    ])
    hve = HVE(group)
    public, master = hve.setup(schema.vector_length)

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


def _print_deliveries(delivered, indent: str = "") -> None:
    for name in sorted(delivered):
        payloads = ", ".join(repr(p) for p in delivered[name]) or "(nothing)"
        print(f"{indent}{name}: {payloads}")


def _cmd_live_demo(args) -> None:
    import asyncio

    from .core.config import P3SConfig
    from .live.scenario import default_scenario, run_on_live, run_on_simulator

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
    from .core.config import P3SConfig
    from .live.runner import init_state

    config = P3SConfig(
        ds_shards=args.ds_shards,
        rs_shards=args.rs_shards,
        rs_replication=args.replication,
        data_dir=args.data_dir,
    )
    state = init_state(args.state, host=args.host, base_port=args.base_port, config=config)
    plan = ", ".join(f"{name}={port}" for name, port in state.ports.items())
    print(f"wrote deployment state to {args.state} ({plan})")
    if state.plan.cluster is not None:
        print(
            f"sharded topology: {len(state.plan.cluster.ds_names)} DS x "
            f"{len(state.plan.cluster.rs_names)} RS, "
            f"replication {state.plan.cluster.rs_replication}"
        )
    config = state.plan.config  # init_state turns a data dir into the wal backend
    if config.data_dir is not None:
        print(f"durable stores ({config.store_backend}) under {config.data_dir}")


def _cmd_store_inspect(args) -> None:
    import json

    from .store import format_inspection, inspect_store

    report = inspect_store(args.path)
    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        print(format_inspection(report))


def _write_profile(profile, out: str, force: bool) -> None:
    """Write a profile as speedscope JSON (or ``.folded`` text by suffix).

    Refuses to clobber an existing recording unless ``--force`` — a
    before/after diff workflow lives or dies on not losing the "before".
    """
    import json
    import os

    if os.path.exists(out) and not force:
        raise SystemExit(f"refusing to overwrite {out} (pass --force)")
    if out.endswith(".folded"):
        with open(out, "w") as handle:
            handle.write(profile.folded())
        return
    with open(out, "w") as handle:
        json.dump(profile.to_speedscope(name=os.path.basename(out)), handle, indent=2)
        handle.write("\n")


def _cmd_prof_record(args) -> None:
    from .obs.prof import format_report, record_demo

    profile, stats = record_demo(
        publications=args.publications,
        seed=args.seed,
        mode=args.mode,
        every=args.every,
        hz=args.hz,
    )
    if args.out:
        _write_profile(profile, args.out, args.force)
        print(
            f"recorded {args.mode} profile of {stats['publications']} publications "
            f"(seed {stats['seed']}, {stats['delivered']} delivered) -> {args.out}"
        )
    print(format_report(profile, limit=args.limit))


def _cmd_prof_report(args) -> None:
    from .obs.prof import format_report, load_profile

    print(format_report(load_profile(args.profile), limit=args.limit))


def _cmd_prof_diff(args) -> None:
    from .obs.prof import diff_profiles, format_diff, load_profile

    before = load_profile(args.before)
    after = load_profile(args.after)
    deltas = diff_profiles(before, after, normalize=not args.absolute)
    print(format_diff(deltas, limit=args.limit, normalized=not args.absolute))


def _cmd_prof_ledger(args) -> None:
    from .obs.observability import Observability
    from .obs.prof import cost_ledger, format_ledger
    from .obs.prof.workload import run_demo_workload

    obs = Observability()
    stats = run_demo_workload(args.publications, seed=args.seed, obs=obs)
    calibration = calibrate(
        args.params, vector_bits=8, policy_attributes=4, repetitions=1
    )
    rows = cost_ledger(obs.metrics, calibration)
    print(
        f"demo workload: {stats['publications']} publications (seed "
        f"{stats['seed']}), {stats['delivered']} delivered; calibration "
        f"{args.params}"
    )
    print(format_ledger(rows))


def _cmd_prof_top(args) -> None:
    from .obs.prof import format_report

    # in-process: let the background publisher give the sampler something to see
    aggregator = _sweep_once(args, warmup_s=0.0 if args.state else args.warmup)
    origins = aggregator.profile_origins()
    if not origins:
        raise SystemExit(
            "no profiles scraped — no reachable service has a sampler attached "
            "(every `live serve-*` process starts one)"
        )
    merged = aggregator.merged_profile()
    print(
        "profiles from: "
        + ", ".join(
            f"{origin} ({'+'.join(sorted(names))})" for origin, names in sorted(origins.items())
        )
    )
    print(format_report(merged, limit=args.limit))
    if args.out:
        _write_profile(merged, args.out, args.force)
        print(f"merged profile -> {args.out}")


def _cmd_perf_gate(args) -> None:
    from .perf.gate import format_gate, run_gate

    report = run_gate(
        root=args.root,
        smoke=args.smoke,
        only=args.only or None,
    )
    print(format_gate(report))
    if not report.passed:
        raise SystemExit(1)


def _make_serve_cmd(role: str):
    def _cmd(args) -> None:
        import asyncio

        from .live.runner import load_state, serve_role

        # sharded bundles name their services ds0/ds1/rs0/…; --name picks
        # which shard this process serves (default: the classic name)
        name = getattr(args, "name", None) or role
        try:
            asyncio.run(serve_role(name, load_state(args.state)))
        except KeyboardInterrupt:
            pass

    return _cmd


def _cmd_live_run(args) -> None:
    import asyncio

    from .live.runner import load_state, run_clients
    from .live.scenario import default_scenario

    _print_deliveries(asyncio.run(run_clients(load_state(args.state), default_scenario())))


@contextlib.asynccontextmanager
async def _telemetry_session(state: str | None):
    """The operator's telemetry client: every command that sweeps takes
    its sweeps through this one session.

    With ``state`` it polls the running multi-process deployment that
    bundle describes.  Without, it stands up an in-process deployment —
    profiled like a ``live serve-*`` process, with one subscriber and a
    background publisher — and yields once two publications were
    delivered, so the first sweep already has whole traces to show.
    Whatever was created is torn down on exit.
    """
    import asyncio
    import itertools

    async with contextlib.AsyncExitStack() as cleanup:
        if state:
            from .live.runner import load_state

            deployment = load_state(state).deployment()
        else:
            from .core.config import P3SConfig
            from .live.deployment import LiveDeployment
            from .live.scenario import demo_metadata
            from .obs import Observability
            from .obs.prof import start_default_profiler
            from .obs.ring import DEFAULT_FLIGHT_RECORDER_CAPACITY
            from .pbe.schema import Interest

            obs = Observability(span_capacity=DEFAULT_FLIGHT_RECORDER_CAPACITY)
            cleanup.callback(obs.uninstall)
            cleanup.callback(start_default_profiler(obs, origin="inproc-wall").stop)
            deployment = LiveDeployment(P3SConfig(obs=obs))
            cleanup.push_async_callback(deployment.close)
            await deployment.start()
            subscriber = await deployment.add_subscriber("alice", {"org:acme"})
            await subscriber.subscribe(Interest({"attr00": "v01"}))
            publisher = await deployment.add_publisher("pub")

            async def publish_ticks() -> None:
                for tick in itertools.count():
                    await publisher.publish(
                        dict(demo_metadata(attr00="v01")),
                        f"tick {tick}".encode(),
                        policy="org:acme",
                    )
                    await asyncio.sleep(0.05)

            driver = asyncio.ensure_future(publish_ticks())

            async def stop_driver() -> None:
                driver.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await driver

            cleanup.push_async_callback(stop_driver)
            await subscriber.wait_for_deliveries(2)
        client = deployment.telemetry_client()
        cleanup.push_async_callback(client.close)
        yield client


def _sweep_once(args, warmup_s: float = 0.0):
    """One telemetry sweep of ``args.state``'s deployment or an in-process one."""
    import asyncio

    async def sweep():
        async with _telemetry_session(args.state) as client:
            await asyncio.sleep(warmup_s)
            return await client.scrape()

    return asyncio.run(sweep())


def _judge(aggregator, latency_threshold_s: float):
    """The stock wall-clock SLOs over one sweep — what ``live status`` and
    ``slo report`` judge a deployment by."""
    from .obs.slo import SloEngine, default_slos

    engine = SloEngine(default_slos(latency_threshold_s=latency_threshold_s))
    engine.ingest(aggregator, now=0.0)
    engine.evaluate(0.0)
    return engine


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
            f"p50 {latency['p50_s'] * 1000:.1f} ms, p95 {latency['p95_s'] * 1000:.1f} ms, "
            f"max {latency['max_s'] * 1000:.1f} ms"
        )
    print(
        f"spans aggregated: {len(aggregator.spans())}, "
        f"dropped by flight recorders: {aggregator.total_dropped_spans}"
    )
    print(_alerts_line(engine))


def _cmd_live_status(args) -> None:
    import json

    aggregator = _sweep_once(args)
    # judge the sweep against the stock SLOs so alert state rides along in
    # every output form (table footer, JSON, slo_* series)
    engine = _judge(aggregator, latency_threshold_s=2.5)
    if args.metrics_out:
        from .live.telemetry import GAUGE_METRICS
        from .obs import to_openmetrics
        from .obs.slo import SLO_GAUGE_METRICS

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


def _watch(args, aggregator, engine, draw) -> None:
    """The sweep loop under ``live top`` and ``slo watch``: scrape into
    ``aggregator``, feed and evaluate the SLO ``engine`` at run time
    ``run_t``, clear the screen, ``draw(iteration, run_t, services)``;
    Ctrl-C just ends it."""
    import asyncio
    import time as wall

    async def sweeps() -> None:
        async with _telemetry_session(args.state) as client:
            started = wall.monotonic()
            for iteration in range(args.iterations):
                if iteration:
                    await asyncio.sleep(args.interval)
                await client.scrape(aggregator)
                run_t = wall.monotonic() - started
                engine.ingest(aggregator, now=run_t)
                engine.evaluate(run_t)
                if not args.no_clear:
                    print("\x1b[2J\x1b[H", end="")
                draw(iteration, run_t, client.services)

    try:
        asyncio.run(sweeps())
    except KeyboardInterrupt:
        pass


def _cmd_live_top(args) -> None:
    from .obs.aggregate import TelemetryAggregator
    from .obs.slo import SloEngine, default_slos

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
                f"publish→deliver: p50 {latency['p50_s'] * 1000:.1f} ms, "
                f"p95 {latency['p95_s'] * 1000:.1f} ms over {latency['count']} "
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

    _watch(args, aggregator, engine, draw)


def _cmd_cluster_status(args) -> None:
    import json

    if args.state:
        # topology from a provisioned multi-process bundle (no I/O to the
        # services — this reads the signed registration material)
        from .live.runner import load_state

        state = load_state(args.state)
        status = {
            "sharded": state.plan.cluster is not None,
            "roles": list(state.plan.service_names),
            "ports": dict(state.ports),
        }
        if state.plan.cluster is not None:
            status["cluster"] = state.plan.cluster.describe()
    else:
        # no bundle: stand up an in-process *simulated* sharded system,
        # run the demo scenario through it, and report live counters —
        # membership, per-shard items/publications, keyspace shares
        from .core import P3SConfig, P3SSystem
        from .live import scenario as sc
        from .pbe import Interest

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


def _cmd_chaos_run(args) -> None:
    from .chaos import FaultSchedule, minimize, run_chaos

    schedule = None
    if args.schedule:
        with open(args.schedule) as handle:
            schedule = FaultSchedule.from_json(handle.read())
    report = run_chaos(args.seed, args.profile, schedule=schedule)
    rows = [
        [result.family, result.name, "pass" if result.passed else "FAIL",
         result.detail if not result.passed else ""]
        for result in report.invariants
    ]
    print(format_table(
        ["family", "invariant", "verdict", "detail"],
        rows,
        title=f"chaos run — seed {args.seed}, profile {report.profile}",
    ))
    applied = sum(entry["count"] for entry in report.applied_faults)
    print(f"\nfaults scheduled: {len(report.schedule['faults'])}, "
          f"frames faulted: {applied}")
    for entry in report.applied_faults:
        print(f"  fault #{entry['fault']}: {entry['kind']} "
              f"{entry['src']}->{entry['dst']} x{entry['count']}")
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(report.to_json() + "\n")
        print(f"wrote report to {args.report}")
    if report.passed:
        print("\nall invariants hold")
        return
    print(f"\n{len(report.failures())} invariant(s) violated")
    if args.minimize:
        minimal, minimal_report = minimize(args.seed, args.profile, schedule=schedule)
        print(f"minimized schedule: {len(minimal.faults)} fault(s) suffice to reproduce")
        print(minimal.to_json())
        if args.min_out:
            with open(args.min_out, "w") as handle:
                handle.write(minimal.to_json() + "\n")
            print(f"wrote minimized schedule to {args.min_out}")
    raise SystemExit(1)


def _cmd_chaos_profiles(args) -> None:
    from .chaos import PROFILES

    rows = [
        [p.name, str(p.n_faults), ",".join(p.kinds),
         f"{p.subscribers}x{p.publications}", "yes" if p.durable else "no",
         f"{p.ds_shards}DSx{p.rs_shards}RS r{p.rs_replication}"]
        for p in PROFILES.values()
    ]
    print(format_table(
        ["profile", "faults", "kinds", "subs x pubs", "durable", "topology"],
        rows,
        title="chaos fault profiles",
    ))


def _print_slo_report(report: dict) -> None:
    rows = []
    for name, entry in report["slos"].items():
        worst_burn = max(
            (rates["long_burn"] for rates in entry["burn_rates"].values()),
            default=0.0,
        )
        rows.append([
            name,
            f"{entry['objective']:.2f}",
            str(entry["good"]),
            str(entry["bad"]),
            f"{entry['error_budget_remaining']:.3f}",
            f"{worst_burn:.2f}",
            str(entry["active_alerts"]) if entry["active_alerts"] else "-",
        ])
    print(format_table(
        ["slo", "objective", "good", "bad", "budget left", "worst burn", "active"],
        rows,
        title=f"SLO report — evaluated at t={report['evaluated_at']:.2f}s",
    ))
    alerts = report.get("alerts", [])
    if not alerts:
        print("\nno burn-rate alerts fired")
        return
    print()
    print(format_table(
        ["slo", "severity", "window", "fired at", "cleared at"],
        [
            [
                alert["slo"], alert["severity"], alert["window"],
                f"{alert['fired_at']:.2f}",
                f"{alert['cleared_at']:.2f}"
                if alert["cleared_at"] is not None else "ACTIVE",
            ]
            for alert in alerts
        ],
        title="burn-rate alerts (fire→clear episodes)",
    ))


def _slo_report_doc(args) -> dict:
    """Build the SLO report document from whichever source was selected."""
    import json

    if args.chaos_report:
        with open(args.chaos_report) as handle:
            data = json.load(handle)
        doc = data.get("slo")
        if doc is None:
            raise SystemExit(
                f"{args.chaos_report} has no 'slo' section — rerun the chaos "
                "run with an alerting profile (e.g. --profile ci)"
            )
        return doc
    if args.chaos_seed is not None:
        from .chaos import FaultSchedule, run_chaos

        schedule = None
        if args.no_faults:
            schedule = FaultSchedule(seed=args.chaos_seed, profile=args.profile)
        report = run_chaos(args.chaos_seed, args.profile, schedule=schedule)
        if report.slo is None:
            raise SystemExit(
                f"profile {args.profile!r} does not enable alerting — "
                "use --profile ci"
            )
        return report.slo

    # live mode: one telemetry sweep (running deployment or in-process
    # demo), judged by the wall-clock SLO set
    return _judge(_sweep_once(args), latency_threshold_s=args.latency_slo).report()


def _cmd_slo_report(args) -> None:
    import json

    doc = _slo_report_doc(args)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        _print_slo_report(doc)
    # CI gates: --expect-alert / --expect-clean turn the report into a
    # pass/fail check (see .github/workflows/ci.yml, job test-slo)
    fired = {alert["slo"] for alert in doc.get("alerts", [])}
    failures = []
    for slo in args.expect_alert:
        if slo not in fired:
            failures.append(f"expected an alert for SLO {slo!r}; none fired")
    if args.expect_clean and fired:
        failures.append(f"expected a clean run; alerts fired for {sorted(fired)}")
    if failures:
        for failure in failures:
            print(f"GATE FAIL: {failure}")
        raise SystemExit(1)
    if args.expect_alert or args.expect_clean:
        print("gate ok")


def _cmd_slo_watch(args) -> None:
    from .obs.aggregate import TelemetryAggregator
    from .obs.slo import SloEngine, default_slos

    engine = SloEngine(default_slos(latency_threshold_s=args.latency_slo))

    def draw(iteration: int, run_t: float, _services: list[str]) -> None:
        report = engine.report(run_t)
        rows = []
        for name, entry in report["slos"].items():
            fast = next(iter(entry["burn_rates"].values()))
            rows.append([
                name,
                f"{entry['objective']:.2f}",
                f"{entry['good']}/{entry['bad']}",
                f"{entry['error_budget_remaining']:.3f}",
                f"{fast['short_burn']:.2f}",
                f"{fast['long_burn']:.2f}",
                str(entry["active_alerts"]) if entry["active_alerts"] else "-",
            ])
        print(format_table(
            ["slo", "obj", "good/bad", "budget left",
             "fast short", "fast long", "active"],
            rows,
            title=(
                f"repro slo watch — sweep {iteration + 1}/{args.iterations}, "
                f"t={run_t:.1f}s"
            ),
        ))
        active = engine.active_alerts()
        if active:
            for alert in active:
                labels = dict(alert.labels)
                where = f" ({labels['service']})" if "service" in labels else ""
                print(
                    f"ALERT {alert.severity}: {alert.slo}{where} "
                    f"window {alert.window}, firing since t={alert.fired_at:.1f}s"
                )
        else:
            print("no active alerts")

    _watch(args, TelemetryAggregator(), engine, draw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="P3S reproduction — experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser("table1", help="Table 1 with measured constants")
    table1.add_argument("-p", "--params", default="TOY", choices=["TOY", "TEST", "PAPER"])
    table1.set_defaults(func=_cmd_table1)

    for name, func in (("fig8", _cmd_fig8), ("fig9", _cmd_fig9), ("fig10", _cmd_fig10)):
        fig = sub.add_parser(name, help=f"regenerate {name}")
        fig.set_defaults(func=func)

    cal = sub.add_parser("calibrate", help="measure crypto constants")
    cal.add_argument("-p", "--params", default="TOY", choices=["TOY", "TEST", "PAPER"])
    cal.add_argument("--vector-bits", type=int, default=40)
    cal.add_argument("--reps", type=int, default=1)
    cal.set_defaults(func=_cmd_calibrate)

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
        help="write the metrics registry as CSV to PATH",
    )
    demo.set_defaults(func=_cmd_demo)

    attacks = sub.add_parser("attacks", help="run the §6.1 token attacks")
    attacks.set_defaults(func=_cmd_attacks)

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
        serve.set_defaults(func=_make_serve_cmd(role))

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

    live_top = live_sub.add_parser(
        "top", help="refreshing per-service throughput / queue / latency view"
    )
    live_top.add_argument(
        "--state", metavar="FILE", default=None,
        help="poll a running multi-process deployment; omit for a "
             "self-driving in-process deployment",
    )
    live_top.add_argument("--interval", type=float, default=1.0, metavar="SECONDS")
    live_top.add_argument("--iterations", type=int, default=5, metavar="N")
    live_top.add_argument(
        "--window", type=int, default=256,
        help="rolling publish→deliver latency window (deliveries)",
    )
    live_top.add_argument(
        "--no-clear", action="store_true",
        help="append sweeps instead of clearing the screen (for logs/CI)",
    )
    live_top.add_argument(
        "--hot-frames", type=int, default=5, metavar="N",
        help="profiler hot frames shown per sweep (0 disables the panel)",
    )
    live_top.set_defaults(func=_cmd_live_top)

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

    chaos = sub.add_parser("chaos", help="seeded fault injection + invariant checks")
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    chaos_run = chaos_sub.add_parser(
        "run",
        help="one seeded chaos run: derive workload + fault schedule from the "
             "seed, execute with injection, check the invariant catalogue",
    )
    chaos_run.add_argument("--seed", type=int, required=True)
    chaos_run.add_argument(
        "--profile", default="default",
        help="fault profile (see 'chaos profiles'; default: default)",
    )
    chaos_run.add_argument(
        "--schedule", metavar="FILE", default=None,
        help="replay a serialized schedule instead of generating one",
    )
    chaos_run.add_argument(
        "--report", metavar="PATH", default=None,
        help="write the full JSON run report to PATH",
    )
    chaos_run.add_argument(
        "--minimize", action="store_true",
        help="on failure, greedily shrink the schedule to a 1-minimal "
             "failing fault set",
    )
    chaos_run.add_argument(
        "--min-out", metavar="PATH", default=None,
        help="write the minimized schedule JSON to PATH (with --minimize)",
    )
    chaos_run.set_defaults(func=_cmd_chaos_run)
    chaos_profiles = chaos_sub.add_parser("profiles", help="list fault profiles")
    chaos_profiles.set_defaults(func=_cmd_chaos_profiles)

    slo = sub.add_parser(
        "slo", help="service-level objectives: budgets, burn rates, alerts"
    )
    slo_sub = slo.add_subparsers(dest="slo_command", required=True)
    slo_report = slo_sub.add_parser(
        "report",
        help="one-shot SLO report: from a fresh chaos run (--chaos-seed), a "
             "saved chaos report (--chaos-report), a running deployment "
             "(--state), or an in-process demo deployment (no flags)",
    )
    slo_report.add_argument(
        "--state", metavar="FILE", default=None,
        help="judge a running multi-process deployment's telemetry",
    )
    slo_report.add_argument(
        "--chaos-report", metavar="FILE", default=None,
        help="read the 'slo' section of a saved chaos run report",
    )
    slo_report.add_argument(
        "--chaos-seed", type=int, default=None, metavar="N",
        help="run one seeded chaos run and report its SLO timeline",
    )
    slo_report.add_argument(
        "--profile", default="ci",
        help="chaos profile for --chaos-seed (must enable alerting; default: ci)",
    )
    slo_report.add_argument(
        "--no-faults", action="store_true",
        help="with --chaos-seed: run with an empty fault schedule "
             "(fault-free baseline for --expect-clean)",
    )
    slo_report.add_argument(
        "--latency-slo", type=float, default=2.5, metavar="SECONDS",
        help="delivery-latency threshold for live/demo mode (default: 2.5 — "
             "headroom for the real TOY-parameter crypto on a shared box)",
    )
    slo_report.add_argument("--json", action="store_true", help="emit JSON")
    slo_report.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the JSON report to PATH (CI artifact)",
    )
    slo_report.add_argument(
        "--expect-alert", action="append", default=[], metavar="SLO",
        help="exit 1 unless an alert fired for SLO (repeatable; CI gate)",
    )
    slo_report.add_argument(
        "--expect-clean", action="store_true",
        help="exit 1 if any alert fired (CI gate for fault-free runs)",
    )
    slo_report.set_defaults(func=_cmd_slo_report)
    slo_watch = slo_sub.add_parser(
        "watch", help="refreshing burn-rate / active-alert view"
    )
    slo_watch.add_argument(
        "--state", metavar="FILE", default=None,
        help="poll a running multi-process deployment; omit for a "
             "self-driving in-process deployment",
    )
    slo_watch.add_argument("--interval", type=float, default=1.0, metavar="SECONDS")
    slo_watch.add_argument("--iterations", type=int, default=5, metavar="N")
    slo_watch.add_argument(
        "--latency-slo", type=float, default=2.5, metavar="SECONDS",
        help="delivery-latency threshold (default: 2.5)",
    )
    slo_watch.add_argument(
        "--no-clear", action="store_true",
        help="append sweeps instead of clearing the screen (for logs/CI)",
    )
    slo_watch.set_defaults(func=_cmd_slo_watch)

    store = sub.add_parser("store", help="inspect repro.store files")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_inspect = store_sub.add_parser(
        "inspect",
        help="dump record counts, live/tombstone ratio, and last committed "
             "LSN of a WAL store directory (no key needed)",
    )
    store_inspect.add_argument("path", help="WAL store directory")
    store_inspect.add_argument("--json", action="store_true", help="emit JSON")
    store_inspect.set_defaults(func=_cmd_store_inspect)

    prof = sub.add_parser(
        "prof", help="continuous profiling (see docs/OBSERVABILITY.md)"
    )
    prof_sub = prof.add_subparsers(dest="prof_command", required=True)

    prof_record = prof_sub.add_parser(
        "record",
        help="profile the seeded demo workload and write a speedscope "
             "(or .folded) recording",
    )
    prof_record.add_argument(
        "--mode", choices=("det", "wall"), default="det",
        help="det: deterministic op-count sampling (seed-replayable); "
             "wall: background stack sampler (default: det)",
    )
    prof_record.add_argument("--publications", type=int, default=50, metavar="N")
    prof_record.add_argument("--seed", type=int, default=0)
    prof_record.add_argument(
        "--every", type=int, default=8, metavar="OPS",
        help="det mode: one sample per OPS instrumented crypto ops",
    )
    prof_record.add_argument(
        "--hz", type=float, default=97.0,
        help="wall mode: sampling frequency",
    )
    prof_record.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the recording (speedscope JSON, or collapsed-stack "
             "text when FILE ends in .folded)",
    )
    prof_record.add_argument(
        "--force", action="store_true",
        help="overwrite an existing --out file",
    )
    prof_record.add_argument("--limit", type=int, default=15, metavar="N")
    prof_record.set_defaults(func=_cmd_prof_record)

    prof_report = prof_sub.add_parser(
        "report", help="hot-frames report of a recorded profile"
    )
    prof_report.add_argument("profile", help="speedscope JSON or .folded recording")
    prof_report.add_argument("--limit", type=int, default=20, metavar="N")
    prof_report.set_defaults(func=_cmd_prof_report)

    prof_diff = prof_sub.add_parser(
        "diff", help="rank self-time deltas between two recordings"
    )
    prof_diff.add_argument("before", help="baseline recording")
    prof_diff.add_argument("after", help="candidate recording")
    prof_diff.add_argument(
        "--absolute", action="store_true",
        help="raw weight deltas instead of per-profile-normalized shares",
    )
    prof_diff.add_argument("--limit", type=int, default=20, metavar="N")
    prof_diff.set_defaults(func=_cmd_prof_diff)

    prof_ledger = prof_sub.add_parser(
        "ledger",
        help="crypto cost ledger: modeled (count x calibrated cost) vs "
             "measured self time per component",
    )
    prof_ledger.add_argument("--publications", type=int, default=20, metavar="N")
    prof_ledger.add_argument("--seed", type=int, default=0)
    prof_ledger.add_argument(
        "-p", "--params", default="TOY",
        help="calibration parameter set (default: TOY)",
    )
    prof_ledger.set_defaults(func=_cmd_prof_ledger)

    prof_top = prof_sub.add_parser(
        "top",
        help="scrape live services' profiles, merge, and report hot frames",
    )
    prof_top.add_argument(
        "--state", metavar="FILE", default=None,
        help="scrape a running multi-process deployment; omit for a "
             "self-driving in-process deployment",
    )
    prof_top.add_argument(
        "--warmup", type=float, default=1.5, metavar="SECONDS",
        help="in-process mode: traffic time before the scrape",
    )
    prof_top.add_argument(
        "--out", metavar="FILE", default=None,
        help="also write the merged profile (speedscope JSON / .folded)",
    )
    prof_top.add_argument("--force", action="store_true", help="overwrite --out")
    prof_top.add_argument("--limit", type=int, default=20, metavar="N")
    prof_top.set_defaults(func=_cmd_prof_top)

    perf = sub.add_parser(
        "perf", help="performance trajectory tools (see docs/PERFORMANCE.md)"
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    perf_gate = perf_sub.add_parser(
        "gate",
        help="judge the committed BENCH_*.json history (smoke) and "
             "re-measure machine-independent ratios against it (fresh); "
             "non-zero exit on regression",
    )
    perf_gate.add_argument(
        "--root", default=".", metavar="DIR",
        help="directory holding the BENCH_*.json history (default: .)",
    )
    perf_gate.add_argument(
        "--smoke", action="store_true",
        help="history floor/ceiling checks only — no fresh measurements",
    )
    perf_gate.add_argument(
        "--only", action="append", metavar="PROBE",
        help="run only the named fresh probe(s): match, obs, prof",
    )
    perf_gate.set_defaults(func=_cmd_perf_gate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
