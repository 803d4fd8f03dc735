"""Flight recorder: bounding, eviction accounting, destructive drain."""

import pytest

from repro.obs.ring import DEFAULT_FLIGHT_RECORDER_CAPACITY, FlightRecorder
from repro.obs.tracing import Tracer
from repro.obs.tracing import Span


def _span(span_id: int, finished: bool = True) -> Span:
    return Span(
        span_id=span_id,
        trace_id=1,
        parent_id=None,
        name=f"s{span_id}",
        component="test",
        start=float(span_id),
        end=float(span_id) + 1 if finished else None,
    )


class TestFlightRecorder:
    def test_unbounded_by_default(self):
        ring = FlightRecorder()
        for index in range(10_000):
            ring.append(_span(index))
        assert len(list(ring)) == 10_000
        assert ring.dropped == 0

    def test_wraparound_keeps_most_recent_and_counts_drops(self):
        ring = FlightRecorder(capacity=4)
        spans = [_span(i) for i in range(10)]
        for span in spans:
            ring.append(span)
        assert len(list(ring)) == 4
        assert list(ring) == spans[6:]
        assert ring.dropped == 6

    def test_exactly_at_capacity_drops_nothing(self):
        ring = FlightRecorder(capacity=3)
        for index in range(3):
            ring.append(_span(index))
        assert len(list(ring)) == 3
        assert ring.dropped == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_drain_returns_finished_only_and_removes_them(self):
        ring = FlightRecorder(capacity=8)
        done = [_span(1), _span(3)]
        open_span = _span(2, finished=False)
        ring.append(done[0])
        ring.append(open_span)
        ring.append(done[1])
        assert ring.drain() == done
        assert list(ring) == [open_span]
        # finishing the straggler makes it drainable exactly once
        open_span.end = 9.0
        assert ring.drain() == [open_span]
        assert ring.drain() == []

    def test_default_capacity_constant_is_sane(self):
        assert DEFAULT_FLIGHT_RECORDER_CAPACITY >= 1024


class TestTracerWithRecorder:
    def test_tracer_storage_stays_flat_under_capacity(self):
        tracer = Tracer(capacity=16)
        for _ in range(200):
            tracer.end_span(tracer.start_span("op", component="c"))
        assert len(list(tracer.spans)) == 16
        assert tracer.dropped_spans == 200 - 16

    def test_drain_finished_leaves_open_spans(self):
        tracer = Tracer(capacity=16)
        open_span = tracer.start_span("long", component="c")
        tracer.end_span(tracer.start_span("quick", component="c"))
        drained = tracer.drain_finished()
        assert [span.name for span in drained] == ["quick"]
        assert list(tracer.spans) == [open_span]
        tracer.end_span(open_span)
        assert [span.name for span in tracer.drain_finished()] == ["long"]
