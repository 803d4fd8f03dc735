"""What every command that sweeps a deployment's telemetry shares: the
operator's session, one sweep, the refresh loop of ``live top`` and ``slo
watch`` with its options, and the stock SLO judgement."""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import time as wall

from ..obs import Observability
from ..obs.ring import DEFAULT_FLIGHT_RECORDER_CAPACITY
from ..obs.slo import SloEngine, default_slos
from ..pbe.schema import Interest


@contextlib.asynccontextmanager
async def telemetry_session(state: str | None):
    """The operator's telemetry client: every command that sweeps takes
    its sweeps through this one session.

    With ``state`` it polls the running multi-process deployment that
    bundle describes.  Without, it stands up an in-process deployment —
    profiled like a ``live serve-*`` process, with one subscriber and a
    background publisher — and yields once two publications were
    delivered, so the first sweep already has whole traces to show.
    Whatever was created is torn down on exit.
    """
    async with contextlib.AsyncExitStack() as cleanup:
        if state:
            from ..live.runner import load_state

            deployment = load_state(state).deployment()
        else:
            from ..core.config import P3SConfig
            from ..live.deployment import LiveDeployment
            from ..live.scenario import demo_metadata
            from ..obs.prof import start_default_profiler

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


def sweep_once(args, warmup_s: float = 0.0):
    """One telemetry sweep of ``args.state``'s deployment or an in-process one."""

    async def sweep():
        async with telemetry_session(args.state) as client:
            await asyncio.sleep(warmup_s)
            return await client.scrape()

    return asyncio.run(sweep())


def judge(aggregator, latency_threshold_s: float):
    """The stock wall-clock SLOs over one sweep — what ``live status`` and
    ``slo report`` judge a deployment by."""
    engine = SloEngine(default_slos(latency_threshold_s=latency_threshold_s))
    engine.ingest(aggregator, now=0.0)
    engine.evaluate(0.0)
    return engine


def watch_parser(sub, name: str, summary: str, option: str, **option_kwargs):
    """A refreshing view's parser: ``--state``, ``--interval``,
    ``--iterations``, the view's own ``option``, then ``--no-clear``."""
    parser = sub.add_parser(name, help=summary)
    parser.add_argument(
        "--state", metavar="FILE", default=None,
        help="poll a running multi-process deployment; omit for a "
             "self-driving in-process deployment",
    )
    parser.add_argument("--interval", type=float, default=1.0, metavar="SECONDS")
    parser.add_argument("--iterations", type=int, default=5, metavar="N")
    parser.add_argument(option, **option_kwargs)
    parser.add_argument(
        "--no-clear", action="store_true",
        help="append sweeps instead of clearing the screen (for logs/CI)",
    )
    return parser


def watch(args, aggregator, engine, draw) -> None:
    """The sweep loop of a :func:`watch_parser` view: scrape into
    ``aggregator``, feed and evaluate the SLO ``engine`` at run time
    ``run_t``, clear the screen, ``draw(iteration, run_t, services)``;
    Ctrl-C just ends it."""

    async def sweeps() -> None:
        async with telemetry_session(args.state) as client:
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
