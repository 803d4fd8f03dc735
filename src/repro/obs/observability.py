"""The :class:`Observability` bundle: one tracer + one metrics registry.

This is the object experiments hold.  Pass it to a deployment via
``P3SConfig(obs=...)``; the system binds the tracer's clock to its
simulator and installs the instance as the process-wide hook sink
(:mod:`repro.obs.hooks`).  When no instance is installed every hook in
the codebase is a no-op.

Typical use::

    from repro.obs import Observability, to_openmetrics

    obs = Observability()
    system = P3SSystem(P3SConfig(obs=obs))
    ...publish, run...
    print(obs.format_tree())        # causal span tree per publication
    print(obs.format_ops())         # per-component crypto-op counts
    obs.write_spans("trace.jsonl")  # offline analysis
    text = to_openmetrics(obs.metrics)  # metrics, OpenMetrics text

Only one instance is active at a time (the crypto layer counts into a
process global); installing a second instance supersedes the first.
``uninstall()`` — also invoked by ``with obs.installed():`` — restores
the no-op state.
"""

from __future__ import annotations

import contextlib
from typing import Callable

from . import hooks
from .export import format_op_summary, format_span_tree, write_spans_jsonl
from .metrics import MetricsRegistry
from .tracing import Tracer

__all__ = ["Observability"]

SUMMARY_TRACES = 5  # span trees in the console summary


class Observability:
    """Tracing + metrics for one (or several comparable) simulation runs.

    ``span_capacity`` bounds span storage with the flight-recorder ring
    (see :mod:`repro.obs.ring`) — mandatory hygiene for long-running
    live services, left unbounded by default so experiment runs keep
    every span.

    ``profiler`` is the profile sampler attached to this instance
    (:class:`~repro.obs.prof.sampler.StackSampler` or
    :class:`~repro.obs.prof.sampler.DeterministicSampler`), or ``None``:
    while this instance is the active hook sink, every counted op is also
    offered to ``profiler.on_op`` and the live telemetry plane exposes
    ``profiler.profile()`` in every telemetry snapshot.
    """

    def __init__(self, span_capacity: int | None = None):
        self.tracer = Tracer(capacity=span_capacity)
        self.metrics = MetricsRegistry()
        self.profiler: object | None = None

    # -- lifecycle -----------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point span timestamps at a simulator's clock (``lambda: sim.now``)."""
        self.tracer.clock = clock

    def install(self) -> "Observability":
        """Become the process-wide hook sink; returns self for chaining."""
        hooks.activate(self)
        return self

    def uninstall(self) -> None:
        """Stop receiving hook data (only if currently installed)."""
        hooks.deactivate(self)

    @contextlib.contextmanager
    def installed(self):
        """Scoped installation: ``with obs.installed(): ...``."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- export conveniences ----------------------------------------------------

    def write_spans(self, path: str) -> None:
        write_spans_jsonl(path, self.tracer.spans)

    def format_tree(self, max_traces: int | None = None) -> str:
        return format_span_tree(self.tracer, max_traces=max_traces)

    def format_ops(self) -> str:
        return format_op_summary(self.metrics)

    def summary(self) -> str:
        """Console report: the first :data:`SUMMARY_TRACES` span trees plus
        the crypto-op breakdown."""
        return (
            self.format_tree(max_traces=SUMMARY_TRACES)
            + "\n\noperation counts by component:\n"
            + self.format_ops()
        )
