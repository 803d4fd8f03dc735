"""The flight recorder: a bounded ring buffer of recent spans.

A long-running live service cannot keep every span it ever produced —
the simulator's grow-forever ``Tracer.spans`` list is fine for a
50-publication experiment and a memory leak for a broker serving
traffic for days.  :class:`FlightRecorder` is the drop-in replacement:
a capacity-bounded store that keeps the most recent spans, counts what
it evicted (``dropped``), and supports a destructive **drain** — the
telemetry plane's scrape primitive, which hands finished spans to the
caller exactly once and leaves still-open spans in place so they can be
collected on a later pass.

``capacity=None`` (the default) disables bounding entirely, preserving
the historical list semantics every simulator experiment and test
relies on — including equality against plain lists.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .tracing import Span

__all__ = ["FlightRecorder", "DEFAULT_FLIGHT_RECORDER_CAPACITY"]

# What a live service keeps by default when nobody configures a bound:
# big enough for hundreds of in-flight publications, small enough that a
# week-long process stays flat.
DEFAULT_FLIGHT_RECORDER_CAPACITY = 4096


class FlightRecorder:
    """Bounded (or unbounded) span store with eviction accounting.

    List-compatible surface: ``append``, ``len``, iteration, indexing,
    ``clear`` and equality against lists — the :class:`Tracer` exposes an
    instance as its ``spans`` attribute, so everything written against
    the old list keeps working.
    """

    __slots__ = ("capacity", "dropped", "_spans")

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"flight recorder capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self._spans: "deque[Span]" = deque()

    # -- recording -----------------------------------------------------------

    def append(self, span: "Span") -> None:
        """Record one span, evicting the oldest when at capacity."""
        if self.capacity is not None and len(self._spans) >= self.capacity:
            self._spans.popleft()
            self.dropped += 1
        self._spans.append(span)

    def drain(self) -> "list[Span]":
        """Remove and return every *finished* span, oldest first.

        Open spans stay in the ring (their ``end_span`` has not run yet)
        and will be drained once they finish — so a scraper polling this
        sees every span exactly once.
        """
        finished = [span for span in self._spans if span.finished]
        if finished:
            self._spans = deque(span for span in self._spans if not span.finished)
        return finished

    def snapshot(self) -> "list[Span]":
        """Non-destructive copy, oldest first."""
        return list(self._spans)

    def clear(self) -> None:
        """Drop everything (the ``dropped`` count stays)."""
        self._spans.clear()

    # -- list compatibility ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    def __bool__(self) -> bool:
        return bool(self._spans)

    def __iter__(self) -> "Iterator[Span]":
        return iter(self._spans)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._spans)[index]
        return self._spans[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FlightRecorder):
            return list(self._spans) == list(other._spans)
        if isinstance(other, (list, tuple)):
            return list(self._spans) == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = "∞" if self.capacity is None else str(self.capacity)
        return (
            f"FlightRecorder(len={len(self._spans)}, capacity={bound}, "
            f"dropped={self.dropped})"
        )
