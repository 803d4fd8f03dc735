"""Substrate drivers: stand a deployment up, send the generated load, time it.

Both drivers use only the deployments' public API
(:class:`repro.core.P3SSystem`, :class:`repro.live.deployment.LiveDeployment`,
:class:`repro.core.P3SConfig`) and read the wall clock
(``time.perf_counter``) — never simulator time.  Generator and
deployment share one process and one thread; on the live substrate they
share one event loop, whose time blocked in ``select()`` is measured so
a phase's *busy* time (wall minus idle) is known.  A
:class:`speed.SpeedGauge` is sampled all the way through, so every time
can be corrected for the machine's speed at that moment.

One run is :func:`execute`: set-up (several times when untraced, the
median is ``setup_s``), then a latency phase and a throughput phase, with
a burst of timed subscribes before, between and after them.
"""

from __future__ import annotations

import asyncio
import os
import resource
import selectors
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial

from repro.core import P3SConfig, P3SSystem
from repro.crypto import precompute
from repro.errors import ReproError
from repro.live.deployment import LiveDeployment
from repro.pbe.schema import Interest

from oracle import Oracle
from speed import SpeedGauge
from workloads import Inputs, Publication

__all__ = ["Measurements", "execute"]

clock = time.perf_counter

OVERRUN = 1.5  # a phase is cut off once it has used this multiple of its share
DRAIN_S = 20.0  # longest wait for deliveries still owed when a phase ends
SETTLE_POLL_S = 0.005
GAUGE_PERIOD_S = 0.1  # live: how often the background task samples the gauge
# The timed subscribes run in this many bursts, before, between and after
# the two publication phases: one short burst reads whatever the machine
# (and the correction for it) is doing in that second.
SUBSCRIBE_PARTS = 3


@dataclass
class Measurements:
    """Raw observations of one run; ``report`` turns them into metrics.

    Every duration is kept with the ``perf_counter`` instant it began at,
    so it can be corrected by the gauge readings around that instant."""

    speed: SpeedGauge = field(default_factory=SpeedGauge)
    setups: list[tuple[float, float]] = field(default_factory=list)  # (start, end)
    subscribes: list[tuple[float, float]] = field(default_factory=list)  # (start, seconds)
    publish_s: dict[int, float] = field(default_factory=dict)  # latency phase, by index
    sent_at: dict[int, float] = field(default_factory=dict)  # index -> latency origin
    generator_late_ms: list[float] = field(default_factory=list)
    backlog_end: int = 0
    latency_sent: list[int] = field(default_factory=list)  # publication indices
    throughput: tuple[int, float, float] = (0, 0.0, 0.0)  # (publications, start, end)
    publishes: int = 0
    subscribe_calls: int = 0
    publish_errors: int = 0
    subscribe_errors: int = 0
    phases: dict[str, tuple[float, float]] = field(default_factory=dict)  # (start, end)
    busy_s: dict[str, float] = field(default_factory=dict)  # phase -> wall - idle
    measured: tuple[float, float] = (0.0, 0.0)  # end of set-up -> after teardown
    cpu_s: float = 0.0  # self + reaped children over ``measured``
    peak_rss_mib: float = 0.0
    wire_bytes: int = 0  # simulator Network byte accounting, measured phases
    store_bytes_on_disk: int = 0


class IdleTimingSelector(selectors.DefaultSelector):
    """The event loop's selector, timing how long ``select()`` blocks."""

    def __init__(self):
        super().__init__()
        self.idle_s = 0.0

    def select(self, timeout=None):
        started = clock()
        try:
            return super().select(timeout)
        finally:
            self.idle_s += clock() - started


class Driver:
    """What the two substrates share: the oracle hook and the budget."""

    def __init__(self, inputs: Inputs, out_dir: str):
        self.inputs = inputs
        self.workload = inputs.workload
        self.out_dir = out_dir
        self.oracle = Oracle(inputs.subscribers)
        self.m = Measurements()
        self.subscribers: list = []

    def _on_payload(self, name: str, delivery) -> None:
        index = self.oracle.observe(name, delivery.payload, clock())
        if index is not None and not self.oracle.outstanding(index):
            self._fully_delivered(index)

    def _fully_delivered(self, index: int) -> None:
        pass

    def wire_bytes(self) -> int:
        return 0

    def _budget(self, share: float) -> float:
        return clock() + max(5.0, share * self.inputs.seconds * OVERRUN)


# -- live TCP loopback ------------------------------------------------------------


class LiveDriver(Driver):
    def __init__(self, inputs: Inputs, out_dir: str):
        super().__init__(inputs, out_dir)
        self._pending: dict[int, asyncio.Future] = {}
        self._sent = 0

    async def setup(self) -> None:
        self.deployment = LiveDeployment(P3SConfig(**self.workload.config))
        await self.deployment.start()
        self.subscribers = []
        for spec in self.inputs.subscribers:
            subscriber = await self.deployment.add_subscriber(
                spec.name,
                set(spec.attributes),
                on_payload=partial(self._on_payload, spec.name),
            )
            await subscriber.subscribe(Interest(dict(spec.interest)))
            self.subscribers.append(subscriber)
        self.publisher = await self.deployment.add_publisher("pub")
        self._sent = 0

    async def teardown(self) -> None:
        await self.deployment.close()

    def _fully_delivered(self, index: int) -> None:
        future = self._pending.pop(index, None)
        if future is not None and not future.done():
            future.set_result(None)

    async def _publish(self, publication: Publication, due: float | None = None) -> float:
        if self.oracle.expect(publication):
            self._pending[publication.index] = asyncio.get_running_loop().create_future()
        self._sent += 1
        self.m.publishes += 1
        started = clock()
        self.m.sent_at[publication.index] = started if due is None else due
        try:
            await self.publisher.publish(
                publication.metadata,
                publication.payload,
                policy=publication.policy_text,
                ttl_s=publication.ttl_s,
            )
        except ReproError:
            self.m.publish_errors += 1
        return clock() - started

    async def _drain(self) -> None:
        """Wait for deliveries still owed, then for every subscriber to
        have processed every broadcast (so a spurious delivery would have
        shown by now and the next phase starts from an idle deployment)."""
        deadline = clock() + DRAIN_S
        if self._pending:
            await asyncio.wait(list(self._pending.values()), timeout=DRAIN_S)
            self._pending.clear()
        while clock() < deadline:
            if all(
                s.stats.metadata_seen >= self._sent
                and s.stats.matches
                == len(s.stats.deliveries)
                + s.stats.access_denied
                + s.stats.failed_fetches
                + s.stats.duplicates_suppressed
                for s in self.subscribers
            ):
                return
            await asyncio.sleep(SETTLE_POLL_S)

    async def subscribe_phase(self, part: int) -> None:
        for position, interest in self.inputs.probes[part::SUBSCRIBE_PARTS]:
            subscriber = self.subscribers[position]
            wanted = Interest(dict(interest))
            self.m.subscribe_calls += 1
            started = clock()
            try:
                await subscriber.subscribe(wanted)
            except ReproError:
                self.m.subscribe_errors += 1
                continue
            self.m.subscribes.append((started, clock() - started))
            await subscriber.unsubscribe(wanted)

    async def latency_phase(self) -> None:
        """Open loop: every publication is sent at its scheduled time in
        its own task, whatever is still outstanding, and its latency
        counts from that scheduled time."""
        tasks = []
        origin = clock() + 0.05
        for publication, offset in zip(self.inputs.latency, self.inputs.schedule):
            due = origin + offset
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            self.m.generator_late_ms.append((clock() - due) * 1e3)
            self.m.backlog_end = len(self._pending)
            self.m.latency_sent.append(publication.index)
            tasks.append(asyncio.create_task(self._timed_publish(publication, due)))
        await asyncio.gather(*tasks)
        await self._drain()

    async def _timed_publish(self, publication: Publication, due: float) -> None:
        self.m.publish_s[publication.index] = await self._publish(publication, due)

    async def closed_loop(self, publications: list[Publication], share: float):
        """Closed loop with ``in_flight`` lanes: a lane sends its next
        publication once the previous one is fully delivered.  Returns
        ``(publications sent, start, end)``."""
        queue = iter(publications)
        cutoff = self._budget(share)
        sent = 0
        started = clock()

        async def lane() -> None:
            nonlocal sent
            for publication in queue:
                if clock() > cutoff:
                    return
                await self._publish(publication)
                sent += 1
                owed = self._pending.get(publication.index)
                if owed is not None:
                    await asyncio.wait([owed], timeout=DRAIN_S)

        await asyncio.gather(*(lane() for _ in range(self.workload.in_flight)))
        ended = clock()
        await self._drain()
        return sent, started, ended


# -- discrete-event simulator --------------------------------------------------------


class SimDriver(Driver):
    """Drives the simulator; the coroutines never suspend (they exist so
    :func:`execute` runs both substrates through one template), so the
    gauge is sampled by hand before each publish and subscribe."""

    PUBLISH_STEP_S = 0.001  # simulated seconds per step while timing a publish
    PUBLISH_HORIZON_S = 5.0  # simulated seconds after which a publish has failed

    def __init__(self, inputs: Inputs, out_dir: str):
        super().__init__(inputs, out_dir)
        self.data_dir: str | None = None
        self._churned = 0

    async def setup(self) -> None:
        overrides = dict(self.workload.config)
        if overrides.get("store_backend", "memory") != "memory":
            self.data_dir = tempfile.mkdtemp(prefix="store-", dir=self.out_dir)
            overrides.update(data_dir=self.data_dir, store_key=self.inputs.store_key)
        self.system = P3SSystem(P3SConfig(**overrides))
        self.m.speed.sample()
        self.subscribers = []
        for spec in self.inputs.subscribers:
            subscriber = self.system.add_subscriber(
                spec.name,
                set(spec.attributes),
                on_payload=partial(self._on_payload, spec.name),
            )
            self.system.subscribe(subscriber, Interest(dict(spec.interest)))
            self.subscribers.append(subscriber)
        self.system.run()
        self.publisher = self.system.add_publisher("pub")

    async def teardown(self) -> None:
        self.system.close()
        if self.data_dir is not None:
            self.m.store_bytes_on_disk = sum(
                os.path.getsize(os.path.join(root, name))
                for root, _, names in os.walk(self.data_dir)
                for name in names
            )
            shutil.rmtree(self.data_dir)
            self.data_dir = None

    def wire_bytes(self) -> int:
        return sum(host.bytes_sent for host in self.system.network.hosts.values())

    def _start_publish(self, publication: Publication):
        self.m.speed.sample()
        self.oracle.expect(publication)
        self.m.publishes += 1
        self.m.sent_at[publication.index] = clock()
        return self.publisher.publish(
            publication.metadata,
            publication.payload,
            policy=publication.policy_text,
            ttl_s=publication.ttl_s,
        )

    def _timed_subscribe(self, subscriber, interest: Interest) -> bool:
        self.m.speed.sample()
        self.m.subscribe_calls += 1
        started = clock()
        try:
            self.system.subscribe(subscriber, interest)
            self.system.run()
        except ReproError:
            self.m.subscribe_errors += 1
            return False
        self.m.subscribes.append((started, clock() - started))
        return True

    def _churn(self) -> None:
        """Drop and re-obtain the standing token of the next subscriber
        in the seeded rotation; the new token is a fresh object
        everywhere it is cached."""
        position = self.inputs.churn_order[self._churned % len(self.inputs.churn_order)]
        self._churned += 1
        interest = Interest(dict(self.inputs.subscribers[position].interest))
        self.subscribers[position].unsubscribe(interest)
        self.system.run()
        self._timed_subscribe(self.subscribers[position], interest)

    async def subscribe_phase(self, part: int) -> None:
        for position, interest in self.inputs.probes[part::SUBSCRIBE_PARTS]:
            wanted = Interest(dict(interest))
            if self._timed_subscribe(self.subscribers[position], wanted):
                self.subscribers[position].unsubscribe(wanted)
                self.system.run()

    async def latency_phase(self) -> None:
        """Closed loop, one in flight.  The publisher's own work is
        timed by stepping the simulation until the CP-ABE ciphertext
        exists: nothing else is runnable that early, the first frame is
        still on the simulated wire."""
        cutoff = self._budget(self.workload.latency_share)
        for publication in self.inputs.latency:
            if clock() > cutoff:
                break
            if self.workload.churn:
                self._churn()
            self.m.latency_sent.append(publication.index)
            try:
                record = self._start_publish(publication)
                started = self.m.sent_at[publication.index]
                horizon = self.system.now + self.PUBLISH_HORIZON_S
                while not record.payload_bytes and self.system.now < horizon:
                    self.system.run(until=self.system.now + self.PUBLISH_STEP_S)
                self.m.publish_s[publication.index] = clock() - started
                self.system.run()
            except ReproError:
                self.m.publish_errors += 1

    async def closed_loop(self, publications: list[Publication], share: float):
        """Batches: ``batch`` publications are handed to the publisher,
        then the simulation runs to quiescence.  Under churn the batch's
        re-subscribes run first, so no publication races a token.
        Returns ``(publications sent, start, end)``."""
        cutoff = self._budget(share)
        size = self.workload.batch
        sent = 0
        started = clock()
        for first in range(0, len(publications), size):
            if clock() > cutoff:
                break
            batch = publications[first : first + size]
            try:
                if self.workload.churn:
                    for _ in batch:
                        self._churn()
                for publication in batch:
                    self._start_publish(publication)
                self.system.run()
            except ReproError:
                self.m.publish_errors += len(batch)
            self.m.speed.sample()  # a batch runs for seconds: gauge both ends
            sent += len(batch)
        return sent, started, clock()


# -- one run ----------------------------------------------------------------------------


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + reaped) / 1024  # Linux reports KiB


def execute(inputs: Inputs, out_dir: str, tracer=None, setup_repeats: int = 1):
    """Run one workload; returns ``(Measurements, Oracle)``.

    ``tracer`` (a :class:`tracing.Tracer`) makes it a traced run: the
    wrappers are installed after set-up and removed before teardown.
    """
    selector = IdleTimingSelector()
    driver_type = LiveDriver if inputs.workload.substrate == "live" else SimDriver
    driver = driver_type(inputs, out_dir)
    m = driver.m

    async def gauge_forever() -> None:
        while True:
            m.speed.sample()
            await asyncio.sleep(GAUGE_PERIOD_S)

    async def phase(name: str, work):
        if tracer is not None:
            tracer.mark(name)
        m.speed.sample()
        wall, idle = clock(), selector.idle_s
        result = await work
        m.phases[name] = (wall, clock())
        m.busy_s[name] = (m.phases[name][1] - wall) - (selector.idle_s - idle)
        m.speed.sample()
        return result

    async def run() -> None:
        workload = inputs.workload
        # on the live substrate the loop gets to run this between
        # callbacks; the simulator driver never yields and samples by hand
        gauge = asyncio.create_task(gauge_forever())
        for repeat in range(setup_repeats):
            if repeat:
                await driver.teardown()
            # every set-up starts as a new process would: no comb tables
            precompute.clear_caches()
            m.speed.sample()
            started = clock()
            await driver.setup()
            await driver.closed_loop(inputs.warmup, 1.0)
            m.setups.append((started, clock()))
        cpu_before, measured_from = _cpu_s(), clock()
        try:
            if tracer is not None:
                tracer.install()
            wire_before = driver.wire_bytes()
            await phase("subscribe", driver.subscribe_phase(0))
            await phase("latency", driver.latency_phase())
            await phase("subscribe", driver.subscribe_phase(1))
            m.throughput = await phase(
                "throughput",
                driver.closed_loop(inputs.throughput, workload.throughput_share),
            )
            await phase("subscribe", driver.subscribe_phase(2))
            m.wire_bytes = driver.wire_bytes() - wire_before
        finally:
            if tracer is not None:
                tracer.uninstall()
            await driver.teardown()
            gauge.cancel()
            await asyncio.gather(gauge, return_exceptions=True)
        m.cpu_s = _cpu_s() - cpu_before
        m.measured = (measured_from, clock())
        m.peak_rss_mib = _peak_rss_mib()

    with asyncio.Runner(loop_factory=lambda: asyncio.SelectorEventLoop(selector)) as runner:
        runner.run(run())
    return m, driver.oracle
