"""The two profile samplers: hz-driven wall clock and op-count driven.

:class:`StackSampler` is the production shape — a daemon thread wakes
``hz`` times a second, captures the Python stacks via
``sys._current_frames()``, and attributes each sample with the
component and span name of the tracer's innermost active span.  Memory
is bounded by a capped aggregate stack table that folds further stacks
into the ``<overflow>`` bucket so total weight is preserved while
cardinality stays flat.

:class:`DeterministicSampler` is the simulator shape: no threads, no
clocks.  The :func:`repro.obs.hooks.record_op` /
``@instrument`` hooks call :meth:`on_op` for every counted crypto op and
every ``every``-th op takes a sample whose stack is
``(component, span, span, ..., op.<name>)``.  Because the simulator's op
sequence is a pure function of the workload seed, two runs with the same
seed produce byte-identical folded output — the replayable contract the
profile tests pin.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
from typing import TYPE_CHECKING, Any

from .model import OVERFLOW_FRAME, Profile, Stack

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observability import Observability

__all__ = ["StackSampler", "DeterministicSampler", "start_default_profiler"]

# Stack frames deeper than this are truncated (root side kept): protects
# the table from pathological recursion blowing up stack cardinality.
MAX_STACK_DEPTH = 64
# Distinct stacks a sampler's table holds before new ones fold into the
# overflow bucket.
MAX_STACKS = 4096

_origin_counter = itertools.count(1)


def _new_origin(kind: str) -> str:
    """A token unique to one sampler instance in one process."""
    return f"{kind}-{os.getpid()}-{next(_origin_counter)}"


class _StackTable:
    """Bounded stack → weight aggregate shared by both samplers.

    Once :data:`MAX_STACKS` distinct stacks exist, further *new* stacks
    fold into the single :data:`OVERFLOW_FRAME` bucket — aggregate weight
    is never dropped, only its resolution, and the fold is counted.
    """

    def __init__(self):
        self.max_stacks = MAX_STACKS
        self.samples: dict[Stack, list[float]] = {}  # [count, wall_s, cpu_s]
        self.overflowed = 0

    def add(self, stack: Stack, count: int, wall_s: float, cpu_s: float) -> None:
        entry = self.samples.get(stack)
        if entry is None:
            if len(self.samples) >= self.max_stacks and stack != (OVERFLOW_FRAME,):
                self.overflowed += count
                stack = (OVERFLOW_FRAME,)
                entry = self.samples.get(stack)
            if entry is None:
                entry = self.samples[stack] = [0, 0.0, 0.0]
        entry[0] += count
        entry[1] += wall_s
        entry[2] += cpu_s

    def snapshot(self, profile: Profile) -> Profile:
        for stack, (count, wall_s, cpu_s) in self.samples.items():
            profile.add(stack, count=int(count), wall_s=wall_s, cpu_s=cpu_s)
        return profile


def _frame_stack(frame: Any) -> list[str]:
    """Root-first ``module.function`` names for one thread's stack."""
    names: list[str] = []
    while frame is not None and len(names) < MAX_STACK_DEPTH:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "?")
        names.append(f"{module}.{code.co_name}")
        frame = frame.f_back
    names.reverse()
    return names


class StackSampler:
    """Background wall+CPU sampler over ``sys._current_frames()``.

    Every tick captures the main thread's stack — the thread that holds
    the tracer's span stack — prefixes it with ``(component, span-name)``
    from the innermost active span (``unattributed`` outside any span),
    and charges the tick's wall/CPU deltas to it.

    The aggregate table is bounded (overflow folds to
    :data:`OVERFLOW_FRAME`).  ``obs`` pins which observability
    instance supplies span attribution; by default the process-global
    active one is read at every tick.
    """

    mode = "wall"

    def __init__(
        self,
        hz: float = 97.0,
        obs: "Observability | None" = None,
        origin: str | None = None,
    ):
        if hz <= 0:
            raise ValueError("hz must be positive")
        self.hz = hz
        self.origin = origin or _new_origin("wall")
        self._obs = obs
        self._lock = threading.Lock()
        self._table = _StackTable()
        self.ticks = 0
        self.self_s = 0.0  # sampler's own wall overhead, accounted
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._main_ident = threading.main_thread().ident

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "StackSampler":
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-prof-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "StackSampler":
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=2.0)
            self._thread = None
        return self

    # -- hook surface (uniform with DeterministicSampler) -----------------------

    def on_op(self, op: str, count: int = 1) -> None:
        """Op hook: the wall sampler is time-driven, so this is a no-op."""

    # -- the sampling loop --------------------------------------------------------

    def _run(self) -> None:
        interval = 1.0 / self.hz
        last_wall = time.perf_counter()
        last_cpu = time.process_time()
        while not self._stop.wait(interval):
            tick_start = time.perf_counter()
            cpu_now = time.process_time()
            wall_dt = tick_start - last_wall
            cpu_dt = cpu_now - last_cpu
            last_wall, last_cpu = tick_start, cpu_now
            try:
                self._sample_once(wall_dt, cpu_dt)
            except Exception:  # pragma: no cover - never kill the host
                pass
            self.self_s += time.perf_counter() - tick_start

    def _attribution(self) -> tuple[str, ...]:
        """The main thread's stack prefix: its innermost active span."""
        from .. import hooks  # local: hooks module imports us

        obs = self._obs or hooks.active()
        span = obs.tracer.current_span() if obs is not None else None
        if span is not None:
            return (span.component, span.name)
        return ("unattributed",)

    def _sample_once(self, wall_dt: float, cpu_dt: float) -> None:
        frame = sys._current_frames().get(self._main_ident)
        if frame is None or self._main_ident == threading.get_ident():
            return
        stack = (self._attribution() + tuple(_frame_stack(frame)))[:MAX_STACK_DEPTH]
        with self._lock:
            self.ticks += 1
            self._table.add(stack, 1, wall_dt, cpu_dt)

    # -- output ------------------------------------------------------------------

    def profile(self) -> Profile:
        """Snapshot the aggregate table as a :class:`Profile`."""
        with self._lock:
            return self._table.snapshot(
                Profile(
                    mode=self.mode,
                    origin=self.origin,
                    meta={
                        "hz": self.hz,
                        "ticks": self.ticks,
                        "overflowed": self._table.overflowed,
                        "self_s": round(self.self_s, 6),
                    },
                )
            )


class DeterministicSampler:
    """Op-count-triggered sampler for seed-replayable simulator profiles.

    Called (via the :mod:`repro.obs.hooks` hooks) for every counted
    op; every ``every``-th op takes one sample.  The stack is built from
    the tracer's synchronous span stack — ``(component, span, span, ...,
    op.<name>)`` — so the profile folds exactly like the wall sampler's,
    but with no dependence on timers or thread scheduling: the same
    workload seed replays to byte-identical folded output.

    ``seed`` is recorded in the profile meta so a recording names the
    workload it replays; the sampler itself is seed-free (the op
    sequence carries all the determinism).
    """

    mode = "det"

    def __init__(
        self,
        every: int = 64,
        seed: int | None = None,
        obs: "Observability | None" = None,
    ):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = every
        self.seed = seed
        self.origin = _new_origin("det")
        self._obs = obs
        self._table = _StackTable()
        self.ops_seen = 0
        self.samples_taken = 0

    # -- lifecycle (no-ops: nothing to start) -----------------------------------

    def start(self) -> "DeterministicSampler":
        return self

    def stop(self) -> "DeterministicSampler":
        return self

    # -- the op hook --------------------------------------------------------------

    def on_op(self, op: str, count: int = 1) -> None:
        """Advance the op counter; sample at every ``every``-th op."""
        before = self.ops_seen
        self.ops_seen = before + count
        fires = self.ops_seen // self.every - before // self.every
        if fires <= 0:
            return
        from .. import hooks  # local: hooks module imports us

        obs = self._obs or hooks.active()
        if obs is not None and obs.tracer._stack:
            names = tuple(span.name for span in obs.tracer._stack)
            component = obs.tracer._stack[-1].component
        else:
            names = ()
            component = "unattributed"
        stack = ((component,) + names + ("op." + op,))[:MAX_STACK_DEPTH]
        self._table.add(stack, fires, 0.0, 0.0)
        self.samples_taken += fires

    # -- output ------------------------------------------------------------------

    def profile(self) -> Profile:
        meta: dict[str, Any] = {
            "every": self.every,
            "ops_seen": self.ops_seen,
            "overflowed": self._table.overflowed,
        }
        if self.seed is not None:
            meta["seed"] = self.seed
        return self._table.snapshot(
            Profile(mode=self.mode, origin=self.origin, meta=meta)
        )


def start_default_profiler(obs, origin: str) -> StackSampler:
    """The always-on wall sampler of a long-running process (a served
    role, the in-process ``live top`` view): attached to ``obs`` and
    started at 19 Hz — deliberately gentle, it samples all the process's
    life.
    """
    profiler = obs.profiler = StackSampler(hz=19.0, obs=obs, origin=origin)
    profiler.start()
    return profiler
