"""A deterministic discrete-event simulator (generator-based processes).

This is the execution substrate for every end-to-end experiment: the P3S
deployment, the mini-JMS broker, and the baseline all run as simulator
processes, so wall-clock-independent latency/throughput numbers come out
deterministic and reproducible.

Model (deliberately SimPy-like, implemented from scratch):

* :class:`Simulator` owns the clock and a heap of scheduled callbacks.
* A *process* is a generator that yields :class:`Event` objects; the
  simulator resumes it with the event's value when the event fires.
* :class:`Event` is a one-shot future; :meth:`Simulator.timeout` makes a
  delay event; :class:`Store` is an unbounded FIFO whose ``get`` returns
  an event.

Example::

    sim = Simulator()

    def worker():
        yield sim.timeout(5.0)
        return "done"

    process = sim.process(worker())
    sim.run()
    assert sim.now == 5.0 and process.value == "done"
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator

from ..errors import NetworkError

__all__ = ["Simulator", "Event", "Process", "Store"]


class Event:
    """A one-shot future; processes wait on it by yielding it."""

    __slots__ = ("sim", "triggered", "value", "_callbacks", "failure")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self.failure: BaseException | None = None
        self._callbacks: list[Callable[["Event"], None]] = []

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event; waiting processes resume on the next tick."""
        if self.triggered:
            raise NetworkError("event already triggered")
        self.triggered = True
        self.value = value
        self.sim._schedule_now(self._dispatch)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fire the event with an exception (raised inside waiters)."""
        if self.triggered:
            raise NetworkError("event already triggered")
        self.triggered = True
        self.failure = exception
        self.sim._schedule_now(self._dispatch)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.triggered:
            self.sim._schedule_now(lambda: callback(self))
        else:
            self._callbacks.append(callback)

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def _mark_and_dispatch(self, value: Any) -> None:
        # Timeout events fire exactly at their scheduled tick, without the
        # extra zero-delay hop that succeed() would add.
        self.triggered = True
        self.value = value
        self._dispatch()


class Process(Event):
    """A running generator; also an event that fires when it returns."""

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulator", generator: Generator):
        super().__init__(sim)
        self._generator = generator
        sim._schedule_now(lambda: self._step(None, None))

    def _step(self, value: Any, failure: BaseException | None) -> None:
        try:
            if failure is not None:
                target = self._generator.throw(failure)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            if not self.triggered:
                self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise NetworkError(
                f"process yielded {type(target).__name__}; processes must yield Event objects"
            )
        target.add_callback(self._resume)

    def _resume(self, event: Event) -> None:
        self._step(event.value, event.failure)


class Store:
    """Unbounded FIFO connecting producers and consumers."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self._items)


class Simulator:
    """The event loop: a clock plus a priority queue of callbacks."""

    def __init__(self):
        self.now = 0.0
        self._queue: list[tuple[float, int, bool, Callable[[], None]]] = []
        self._sequence = 0
        self._non_daemon_count = 0

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None], daemon: bool = False) -> None:
        """Schedule ``callback`` after ``delay``.

        ``daemon`` events (periodic housekeeping such as the RS garbage
        collector) do not keep :meth:`run` alive: a run without ``until``
        stops once only daemon events remain.
        """
        if delay < 0:
            raise NetworkError(f"cannot schedule {delay}s in the past")
        heapq.heappush(self._queue, (self.now + delay, self._sequence, daemon, callback))
        self._sequence += 1
        if not daemon:
            self._non_daemon_count += 1

    def _schedule_now(self, callback: Callable[[], None]) -> None:
        self.schedule(0.0, callback)

    def timeout(self, delay: float, daemon: bool = False) -> Event:
        """An event that fires (with value None) ``delay`` from now."""
        event = Event(self)
        self.schedule(delay, lambda: event._mark_and_dispatch(None), daemon=daemon)
        return event

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def event(self) -> Event:
        return Event(self)

    def store(self) -> Store:
        return Store(self)

    # -- execution ----------------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Execute events in time order.

        With ``until`` set, runs every event (daemon or not) scheduled up
        to that time and leaves the clock there.  Without it, runs until
        only daemon events remain (quiescence).
        """
        while self._queue:
            if until is None and self._non_daemon_count == 0:
                return
            time, _, daemon, callback = self._queue[0]
            if until is not None and time > until:
                self.now = until
                return
            heapq.heappop(self._queue)
            if not daemon:
                self._non_daemon_count -= 1
            self.now = time
            callback()
        if until is not None:
            self.now = max(self.now, until)

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    @property
    def quiescent(self) -> bool:
        """True when only daemon events remain — ``run()`` would return.

        The chaos liveness invariant keys off this: after the fault
        window closes and the system runs to quiescence, no protocol
        process may still be parked on an event that will never fire.
        """
        return self._non_daemon_count == 0
