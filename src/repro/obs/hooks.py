"""Instrumentation hooks and the global observability on/off switch.

Every hook in the codebase — crypto-op counters in
:mod:`repro.crypto.pairing`, the ``@instrument`` decorators on the HVE
and CP-ABE schemes, span creation in the component loops, the per-hop
byte counters in :mod:`repro.net.network` — funnels through this module.
The contract the hot paths rely on:

**When no observability instance is active, every hook is a no-op whose
cost is one module-global load and one comparison.**  The global
``_active`` is ``None`` by default; :meth:`Observability.install` flips
it.  This is how the ``obs=None`` default keeps a 50-publication run
within noise of the uninstrumented seed.

The active instance is process-global (not per-system) because the
crypto layer has no handle on a system object — a pairing evaluated deep
inside :func:`repro.crypto.pairing.multi_pairing` can only reach a
global to count itself.  Attribution to the *component* that triggered
it comes from the tracer's synchronous active-span stack (see
:mod:`repro.obs.tracing`).
"""

from __future__ import annotations

import functools
import time
from typing import TYPE_CHECKING, Any, Callable

from .tracing import Span, SpanContext, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .observability import Observability

__all__ = [
    "activate",
    "deactivate",
    "active",
    "active_profiler",
    "record_op",
    "observe",
    "instrument",
    "start_span",
    "end_span",
    "span",
    "attach",
    "inject",
    "extract",
]

UNATTRIBUTED = "unattributed"

_active: "Observability | None" = None


def activate(obs: "Observability") -> None:
    """Make ``obs`` the process-wide sink for every hook."""
    global _active
    _active = obs


def deactivate(obs: "Observability | None" = None) -> None:
    """Disable all hooks (if ``obs`` is given, only when it is the active one)."""
    global _active
    if obs is None or _active is obs:
        _active = None


def active() -> "Observability | None":
    return _active


# -- metric hooks -------------------------------------------------------------


def record_op(op: str, count: int = 1) -> None:
    """Count one (or ``count``) crypto/protocol operations.

    The op is attributed to the component of the innermost active span
    (:data:`UNATTRIBUTED` when called outside any span scope).  When the
    active instance carries a profile sampler, the op is also offered to
    it — the deterministic sampler turns every ``every``-th op into a
    profile sample.
    """
    obs = _active
    if obs is None:
        return
    component = obs.tracer.current_component() or UNATTRIBUTED
    obs.metrics.inc("op." + op, count, component=component)
    profiler = obs.profiler
    if profiler is not None:
        profiler.on_op(op, count)


def active_profiler():
    """The active instance's profile sampler, or ``None``."""
    obs = _active
    return None if obs is None else obs.profiler


def observe(name: str, value: float, **labels: object) -> None:
    """Record one histogram sample (no-op when disabled)."""
    obs = _active
    if obs is None:
        return
    obs.metrics.observe(name, value, **labels)


def instrument(op: str) -> Callable:
    """Decorator: count calls to the wrapped function and time them.

    Records ``op.<op>`` (counter) and ``op.<op>.wall_s`` (wall-clock
    histogram), attributed to the innermost active span's component.
    Disabled cost: one global check per call.
    """

    def decorate(fn: Callable) -> Callable:
        metric = "op." + op
        wall_metric = metric + ".wall_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            obs = _active
            if obs is None:
                return fn(*args, **kwargs)
            who = obs.tracer.current_component() or UNATTRIBUTED
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                obs.metrics.inc(metric, 1, component=who)
                obs.metrics.observe(wall_metric, time.perf_counter() - started, component=who)
                profiler = obs.profiler
                if profiler is not None:
                    profiler.on_op(op, 1)

        return wrapper

    return decorate


# -- span hooks (null-safe facade over the active tracer) ----------------------


class _NullContext:
    """Shared no-op context manager yielding ``None``."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL = _NullContext()


def start_span(
    name: str,
    component: str,
    parent: Span | SpanContext | None = None,
    **attrs: Any,
) -> Span | None:
    """Open an explicit (process-long) span; ``None`` when disabled."""
    obs = _active
    if obs is None:
        return None
    return obs.tracer.start_span(name, component, parent, **attrs)


def end_span(span_obj: Span | None, **attrs: Any) -> None:
    obs = _active
    if obs is None or span_obj is None:
        return
    obs.tracer.end_span(span_obj, **attrs)


def span(
    name: str,
    component: str,
    parent: Span | SpanContext | None = None,
    **attrs: Any,
):
    """Scoped synchronous span (see :meth:`Tracer.span`); no-op when disabled."""
    obs = _active
    if obs is None:
        return _NULL
    return obs.tracer.span(name, component, parent, **attrs)


def attach(span_obj: Span | None):
    """Push an existing span for the duration of a synchronous block."""
    obs = _active
    if obs is None or span_obj is None:
        return _NULL
    return obs.tracer.attach(span_obj)


def inject(headers: dict[str, Any], span_obj: Span | None) -> dict[str, Any]:
    """Stamp span context into ``headers`` (returns them for chaining)."""
    if _active is not None and span_obj is not None:
        Tracer.inject(headers, span_obj)
    return headers


def extract(headers: dict[str, Any] | None) -> SpanContext | None:
    if _active is None:
        return None
    return Tracer.extract(headers)
