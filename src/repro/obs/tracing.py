"""Structured spans over simulated time, linked into causal trees.

A :class:`Span` records one named unit of work: which component performed
it, when it started and ended on the *simulated* clock, how much
*wall-clock* time the real computation underneath took, its parent span,
and free-form attributes.  Spans reference their parent by id, so one
publication's journey — ``publish → ds.fan_out → subscriber.match →
subscriber.retrieve → deliver`` — forms a single tree even though the
hops run as separate simulator processes.

Context propagation follows the OpenTelemetry shape scaled down to the
simulator: a :class:`SpanContext` (trace id + span id) rides in the
``headers`` dict that every :class:`~repro.net.network.Message`,
JMS frame and RPC request already carries (:data:`CONTEXT_HEADER`).
The receiving component extracts it and parents its own span there.
Like ``publication_id``, the context is simulation-only metadata: it is
not accounted in wire sizes and carries nothing an eavesdropper could
use (the privacy analysis never reads it).

Two usage patterns, matching the two shapes of work in the simulator:

* **synchronous blocks** (real crypto between simulator yields) use the
  stack-scoped context manager :meth:`Tracer.span` — nested spans parent
  automatically and per-op counters attribute to the innermost span's
  component.  Such a block must not contain simulator yields.
* **process-long spans** (covering ``yield sim.timeout(...)``) use
  explicit :meth:`Tracer.start_span` / :meth:`Span.end`, because the
  stack cannot track generator interleavings.  :meth:`Tracer.attach`
  temporarily pushes such a span around a synchronous block so crypto
  counters inside still attribute correctly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from .ring import FlightRecorder

__all__ = ["Span", "SpanContext", "Tracer", "CONTEXT_HEADER"]

# Header key under which a SpanContext rides in message/frame headers.
CONTEXT_HEADER = "obs-ctx"

# Ids are process-local counters from 1; a peer's header is outside
# input, so anything beyond a signed 64-bit id is refused, not carried.
_MAX_ID = 2**63 - 1


@dataclass(frozen=True)
class SpanContext:
    """The propagatable identity of a span: enough to parent a child.

    Inside the simulator the context object itself rides in header
    dicts; on the live TCP substrate it must survive byte serialization,
    so :meth:`to_wire`/:meth:`from_wire` give it a JSON-safe form that
    :mod:`repro.live.wire` embeds in the frame header.
    """

    trace_id: int
    span_id: int

    def to_wire(self) -> list[int]:
        """JSON-serializable form for the live frame header."""
        return [self.trace_id, self.span_id]

    @classmethod
    def from_wire(cls, value: object) -> "SpanContext | None":
        """Rebuild a context from its wire form ``[trace_id, span_id]``;
        ``None`` for any other shape — the receiver's span is then
        simply rootless."""
        if (
            isinstance(value, (list, tuple))
            and len(value) == 2
            and all(type(item) is int and 0 < item <= _MAX_ID for item in value)
        ):
            return cls(value[0], value[1])
        return None


@dataclass
class Span:
    """One timed, attributed unit of work inside a trace."""

    span_id: int
    trace_id: int
    parent_id: int | None
    name: str
    component: str
    start: float  # simulated seconds
    end: float | None = None  # simulated seconds; None while open
    wall_start: float = 0.0
    wall_end: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Simulated duration (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start

    @property
    def wall_duration(self) -> float:
        """Wall-clock seconds spent inside the span (real compute)."""
        return 0.0 if self.wall_end is None else self.wall_end - self.wall_start

    def set(self, **attrs: Any) -> "Span":
        self.attributes.update(attrs)
        return self

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (used by the JSONL exporter)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "component": self.component,
            "start_s": self.start,
            "end_s": self.end,
            "wall_s": round(self.wall_duration, 9),
            "attributes": dict(self.attributes),
        }


def _parent_context(parent: "Span | SpanContext | None") -> SpanContext | None:
    if parent is None:
        return None
    if isinstance(parent, Span):
        return parent.context
    return parent


class Tracer:
    """Span factory, store, and (synchronous) active-span stack.

    ``clock`` supplies simulated time (0.0 until bound): the
    orchestrator binds it to ``sim.now`` when the observability instance
    is installed.

    Every span is recorded, into a
    :class:`~repro.obs.ring.FlightRecorder`: the SLO engine judges
    delivery latency from reassembled publish→deliver traces, so it
    needs the whole population, not a sample.  ``capacity=None``
    (default) keeps the historical unbounded-list behaviour; a live
    service passes a bound so a week of traffic stays memory-flat, with
    evictions counted in :attr:`dropped_spans`.
    """

    def __init__(self, capacity: int | None = None):
        self.clock: Callable[[], float] = lambda: 0.0
        self.spans: FlightRecorder = FlightRecorder(capacity)
        self._stack: list[Span] = []
        self._next_span_id = 1
        self._next_trace_id = 1

    @property
    def dropped_spans(self) -> int:
        """Spans evicted from the flight recorder (never silent)."""
        return self.spans.dropped

    # -- creation ------------------------------------------------------------

    def start_span(
        self,
        name: str,
        component: str,
        parent: Span | SpanContext | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a span; explicit spans are NOT pushed on the active stack.

        With no ``parent``, the current stack top (if any) is used;
        otherwise a new trace is started.
        """
        context = _parent_context(parent)
        if context is None and self._stack:
            context = self._stack[-1].context
        if context is None:
            trace_id = self._next_trace_id
            self._next_trace_id += 1
            parent_id = None
        else:
            trace_id = context.trace_id
            parent_id = context.span_id
        span = Span(
            span_id=self._next_span_id,
            trace_id=trace_id,
            parent_id=parent_id,
            name=name,
            component=component,
            start=self.clock(),
            wall_start=time.perf_counter(),
            attributes=dict(attrs),
        )
        self._next_span_id += 1
        self.spans.append(span)
        return span

    def end_span(self, span: Span, **attrs: Any) -> Span:
        if attrs:
            span.attributes.update(attrs)
        if not span.finished:
            span.end = self.clock()
            span.wall_end = time.perf_counter()
        return span

    def drain_finished(self) -> list[Span]:
        """Destructive scrape: remove and return every finished span.

        Every telemetry snapshot calls this — repeated polls
        see each span exactly once, and the recorder never regrows past
        its capacity between polls.
        """
        return self.spans.drain()

    # -- scoped (stack-managed) use -------------------------------------------

    def span(
        self,
        name: str,
        component: str,
        parent: Span | SpanContext | None = None,
        **attrs: Any,
    ) -> "_ScopedSpan":
        """Context manager: start, push, pop, end.  Synchronous blocks only
        (no simulator yields inside — generator interleaving would corrupt
        the stack)."""
        return _ScopedSpan(self, name, component, parent, attrs)

    def attach(self, span: Span | None) -> "_AttachedSpan":
        """Push an existing (process-long) span around a synchronous block
        without ending it on exit, so nested spans and per-op counters
        attribute to it."""
        return _AttachedSpan(self, span)

    def current_span(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def current_component(self) -> str | None:
        return self._stack[-1].component if self._stack else None

    # -- queries ----------------------------------------------------------------

    def roots(self) -> list[Span]:
        return [span for span in self.spans if span.parent_id is None]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def find(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def trace(self, trace_id: int) -> list[Span]:
        return [span for span in self.spans if span.trace_id == trace_id]

    def walk(self, span: Span, depth: int = 0) -> Iterator[tuple[Span, int]]:
        """Depth-first (span, depth) pairs over one subtree, in start order."""
        yield span, depth
        for child in self.children_of(span):
            yield from self.walk(child, depth + 1)

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()

    # -- propagation ---------------------------------------------------------------

    @staticmethod
    def inject(headers: dict[str, Any], span: Span | None) -> dict[str, Any]:
        """Stamp ``span``'s context into a headers dict (in place)."""
        if span is not None:
            headers[CONTEXT_HEADER] = span.context
        return headers

    @staticmethod
    def extract(headers: dict[str, Any] | None) -> SpanContext | None:
        """Recover a context from headers; accepts both the in-process
        object form and the live substrate's decoded wire form."""
        if not headers:
            return None
        context = headers.get(CONTEXT_HEADER)
        if isinstance(context, SpanContext):
            return context
        return SpanContext.from_wire(context)


class _ScopedSpan:
    """``with tracer.span(...) as span:`` — stack-managed synchronous span."""

    __slots__ = ("_tracer", "_args", "_span")

    def __init__(self, tracer: Tracer, name, component, parent, attrs):
        self._tracer = tracer
        self._args = (name, component, parent, attrs)
        self._span: Span | None = None

    def __enter__(self) -> Span:
        name, component, parent, attrs = self._args
        self._span = self._tracer.start_span(name, component, parent, **attrs)
        self._tracer._stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._stack.pop()
        if exc_type is not None:
            self._span.set(error=repr(exc))
        self._tracer.end_span(self._span)
        return False


class _AttachedSpan:
    """``with tracer.attach(span):`` — temporary stack push, no end on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: Tracer, span: Span | None):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span | None:
        if self._span is not None:
            self._tracer._stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._span is not None:
            self._tracer._stack.pop()
        return False
