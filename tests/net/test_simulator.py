"""Discrete-event simulator core behaviour."""

import pytest

from repro.errors import NetworkError
from repro.net.simulator import Simulator


class TestClockAndTimeouts:
    def test_initial_time(self):
        assert Simulator().now == 0.0

    def test_timeout_advances_clock(self):
        sim = Simulator()
        ticks = []

        def proc():
            yield sim.timeout(2.5)
            ticks.append(sim.now)

        sim.process(proc())
        sim.run()
        assert ticks == [2.5]

    def test_timeouts_ordered(self):
        sim = Simulator()
        order = []

        def make(delay, tag):
            def proc():
                yield sim.timeout(delay)
                order.append(tag)

            return proc

        sim.process(make(3.0, "c")())
        sim.process(make(1.0, "a")())
        sim.process(make(2.0, "b")())
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self):
        sim = Simulator()
        order = []
        for tag in ("first", "second", "third"):
            def proc(t=tag):
                yield sim.timeout(1.0)
                order.append(t)
            sim.process(proc())
        sim.run()
        assert order == ["first", "second", "third"]

    def test_run_until(self):
        sim = Simulator()
        fired = []

        def proc():
            yield sim.timeout(10.0)
            fired.append(True)

        sim.process(proc())
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert not fired
        sim.run()
        assert fired

    def test_negative_delay_rejected(self):
        with pytest.raises(NetworkError):
            Simulator().schedule(-1.0, lambda: None)

    def test_timeout_value(self):
        sim = Simulator()
        seen = []

        def proc():
            value = yield sim.timeout(1.0)
            seen.append((sim.now, value))

        sim.process(proc())
        sim.run()
        assert seen == [(1.0, None)]


class TestEventsAndProcesses:
    def test_manual_event(self):
        sim = Simulator()
        event = sim.event()
        seen = []

        def waiter():
            seen.append((yield event))

        def trigger():
            yield sim.timeout(1.0)
            event.succeed(42)

        sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert seen == [42]

    def test_event_double_trigger_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(1)
        with pytest.raises(NetworkError):
            event.succeed(2)

    def test_event_failure_raises_in_waiter(self):
        sim = Simulator()
        event = sim.event()
        caught = []

        def waiter():
            try:
                yield event
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(waiter())
        event.fail(ValueError("boom"))
        sim.run()
        assert caught == ["boom"]

    def test_process_return_value(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1.0)
            return "child-result"

        def parent(results):
            value = yield sim.process(child())
            results.append(value)

        results = []
        sim.process(parent(results))
        sim.run()
        assert results == ["child-result"]

    def test_process_must_yield_events(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(NetworkError):
            sim.run()

    def test_waiting_on_triggered_event(self):
        sim = Simulator()
        event = sim.event()
        event.succeed("early")
        seen = []

        def late_waiter():
            seen.append((yield event))

        sim.process(late_waiter())
        sim.run()
        assert seen == ["early"]


class TestStore:
    def test_fifo_order(self):
        sim = Simulator()
        store = sim.store()
        seen = []

        def consumer():
            for _ in range(3):
                seen.append((yield store.get()))

        store.put("a")
        store.put("b")
        sim.process(consumer())
        store.put("c")
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = sim.store()
        seen = []

        def consumer():
            seen.append((yield store.get()))
            seen.append(sim.now)

        def producer():
            yield sim.timeout(3.0)
            store.put("item")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert seen == ["item", 3.0]

    def test_len(self):
        sim = Simulator()
        store = sim.store()
        store.put(1)
        store.put(2)
        assert len(store) == 2
