"""Declarative SLOs, error budgets, and multi-window burn-rate alerting.

This is the judgement layer of the observability plane: raw telemetry
(spans, counters, latencies) goes in, *"are we meeting our promises,
and how fast are we burning the error budget if not"* comes out.

The design follows the SRE-workbook multi-window multi-burn-rate
pattern:

* An :class:`SloSpec` states an **objective** — the target fraction of
  good events (e.g. 0.95 of deliveries within the latency threshold).
  The **error budget** is the complement (``1 - objective``): the
  fraction of events allowed to be bad before the promise is broken.
* The **burn rate** over a window is ``bad_fraction / budget`` — burn 1
  means the budget is being consumed exactly as fast as it accrues;
  burn 14.4 exhausts a 30-day budget in ~2 days.
* An **alert rule** (:class:`BurnRateWindow`) fires only when the burn
  rate exceeds its factor on *both* a short and a long window.  The
  long window keeps a brief blip from paging; the short window makes
  the alert *clear* quickly once the system recovers (the long window
  alone would stay red long after the incident).

Two window sets ship with the engine:

* :data:`DEFAULT_WINDOWS` — the classic production ladder
  (5m/1h ×14.4 page, 30m/6h ×6 page, 6h/3d ×1 ticket) for live
  deployments on wall-clock time;
* :data:`CHAOS_WINDOWS` — the same shape compressed to simulated
  seconds so a 2.5 s chaos run exercises the full fire→clear cycle
  deterministically (:mod:`repro.chaos` closes the loop by asserting
  injected faults make exactly the mapped alerts fire and clear).

The engine is substrate-free and deterministic: events carry explicit
timestamps (simulated or wall-clock — the engine never reads a clock),
and evaluation at a given ``now`` is a pure function of the recorded
events.  ``repro slo report`` and the chaos alerting invariants both
lean on that determinism.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import MetricsRegistry

__all__ = [
    "BurnRateWindow",
    "SloSpec",
    "Alert",
    "SloEngine",
    "DEFAULT_WINDOWS",
    "CHAOS_WINDOWS",
    "default_slos",
    "chaos_slos",
    "SLO_GAUGE_METRICS",
]

_LabelsKey = tuple[tuple[str, str], ...]

# slo.* series that are point-in-time values, not monotone counters —
# exposition and the live telemetry plane type these as gauges.
SLO_GAUGE_METRICS = frozenset(
    {
        "slo.error_budget_remaining",
        "slo.burn_rate",
        "slo.alert_active",
        "slo.objective",
    }
)


def _fmt_duration(seconds: float) -> str:
    """``300 -> "5m"``, ``259200 -> "3d"``, ``0.25 -> "0.25s"``."""
    for unit_s, suffix in ((86400, "d"), (3600, "h"), (60, "m")):
        if seconds >= unit_s and seconds % unit_s == 0:
            return f"{int(seconds // unit_s)}{suffix}"
    return f"{seconds:g}s"


@dataclass(frozen=True)
class BurnRateWindow:
    """One multi-window burn-rate alert rule.

    Fires when the burn rate is at least ``factor`` over *both* the
    short and the long window; clears as soon as either side recovers.
    ``severity`` is ``"page"`` (wake a human) or ``"ticket"`` (file a
    bug); the engine carries it through to the alert objects and the
    ``slo.alert_active`` series.
    """

    short_s: float
    long_s: float
    factor: float
    severity: str = "page"

    @property
    def label(self) -> str:
        """Display/series label, e.g. ``"5m/1h"``."""
        return f"{_fmt_duration(self.short_s)}/{_fmt_duration(self.long_s)}"


# Production ladder (SRE workbook, ch. 5): fast-burn pages, slow-burn
# ticket.  Factors assume a ~30d budget period.
DEFAULT_WINDOWS: tuple[BurnRateWindow, ...] = (
    BurnRateWindow(short_s=300, long_s=3600, factor=14.4, severity="page"),
    BurnRateWindow(short_s=1800, long_s=21600, factor=6.0, severity="page"),
    BurnRateWindow(short_s=21600, long_s=259200, factor=1.0, severity="ticket"),
)

# The same ladder compressed to chaos-run timescales (simulated
# seconds).  Factor 1.0: with a 0.95 objective a single bad event in a
# short window of ≤ 20 events reaches burn ≥ 1, so every material
# injected fault fires its mapped alert within one traffic window.
CHAOS_WINDOWS: tuple[BurnRateWindow, ...] = (
    BurnRateWindow(short_s=0.25, long_s=1.0, factor=1.0, severity="page"),
    BurnRateWindow(short_s=0.75, long_s=2.5, factor=1.0, severity="ticket"),
)


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective: what fraction of events must be good.

    ``threshold_s`` makes the SLO value-based: events recorded with a
    ``value`` are good iff the value is at or below the threshold (used
    by the latency and store-recovery SLOs); events recorded with an
    explicit ``good`` flag bypass it.
    """

    name: str
    description: str
    objective: float
    windows: tuple[BurnRateWindow, ...] = DEFAULT_WINDOWS
    threshold_s: float | None = None
    unit: str = "events"

    @property
    def budget(self) -> float:
        """The error budget: allowed bad fraction."""
        return 1.0 - self.objective


# the store-recovery SLO's bound on one shard's WAL replay
RECOVERY_THRESHOLD_S = 2.0


def default_slos(latency_threshold_s: float = 1.0) -> tuple[SloSpec, ...]:
    """The live-deployment SLO set (wall-clock :data:`DEFAULT_WINDOWS`)."""
    return (
        SloSpec(
            name="delivery_latency",
            description=(
                f"publish→deliver latency ≤ {latency_threshold_s:g}s "
                "end to end (reassembled traces)"
            ),
            objective=0.95,
            threshold_s=latency_threshold_s,
            unit="deliveries",
        ),
        SloSpec(
            name="publish_ack",
            description="deliveries pushed by the DS acknowledged by subscribers",
            objective=0.95,
            unit="deliveries",
        ),
        SloSpec(
            name="store_recovery",
            description=(
                f"per-shard store recovery (WAL replay) ≤ {RECOVERY_THRESHOLD_S:g}s"
            ),
            objective=0.9,
            threshold_s=RECOVERY_THRESHOLD_S,
            unit="recoveries",
        ),
    )


def chaos_slos(latency_threshold_s: float) -> tuple[SloSpec, ...]:
    """The chaos-run SLO set (simulated-time :data:`CHAOS_WINDOWS`,
    oracle-backed).

    Only deterministic signals appear here — the chaos report must stay
    bit-identical across replays, so anything driven by wall-clock time
    (store recovery duration) is excluded.
    """
    return (
        SloSpec(
            name="delivery_latency",
            description=(
                f"publish→deliver latency ≤ {latency_threshold_s:g}s simulated"
            ),
            objective=0.95,
            windows=CHAOS_WINDOWS,
            threshold_s=latency_threshold_s,
            unit="deliveries",
        ),
        SloSpec(
            name="delivery_integrity",
            description="deliveries arriving exactly once (no duplicate suppressed)",
            objective=0.95,
            windows=CHAOS_WINDOWS,
            unit="deliveries",
        ),
        SloSpec(
            name="delivery_completeness",
            description="oracle-expected deliveries observed by quiescence",
            objective=0.95,
            windows=CHAOS_WINDOWS,
            unit="deliveries",
        ),
    )


@dataclass
class Alert:
    """One fire→clear episode of a burn-rate rule."""

    slo: str
    severity: str
    window: str
    labels: _LabelsKey
    fired_at: float
    cleared_at: float | None = None

    @property
    def active(self) -> bool:
        return self.cleared_at is None

    def to_dict(self) -> dict:
        return {
            "slo": self.slo,
            "severity": self.severity,
            "window": self.window,
            "labels": dict(self.labels),
            "fired_at": self.fired_at,
            "cleared_at": self.cleared_at,
        }


@dataclass
class _Event:
    at: float
    good: bool
    value: float | None = None
    trace_id: int | None = None


class SloEngine:
    """Event intake, sliding-window burn rates, and alert state.

    Feed events with :meth:`record` (each stamped with an explicit
    time), then call :meth:`evaluate` at whatever cadence the substrate
    affords — every scrape in live mode, fixed simulated-time ticks in
    chaos mode.  Evaluation is pure in the recorded events, so replaying
    the same events at the same ticks reproduces the same alert history
    bit for bit.
    """

    def __init__(self, specs: tuple[SloSpec, ...] | list[SloSpec] | None = None):
        self.specs: dict[str, SloSpec] = {
            spec.name: spec for spec in (specs if specs is not None else default_slos())
        }
        # (slo, labels) -> time-ordered events
        self._events: dict[tuple[str, _LabelsKey], list[_Event]] = {}
        self._unsorted: set[tuple[str, _LabelsKey]] = set()
        self.alerts: list[Alert] = []
        self._active: dict[tuple[str, _LabelsKey, str], Alert] = {}
        self.last_evaluated_at: float | None = None
        # live-ingest cursors (consumed trace ids / counter baselines)
        self._seen_latency_traces: set[int] = set()
        self._service_cursors: dict[str, dict[str, float]] = {}

    # -- intake -----------------------------------------------------------------

    def record(
        self,
        slo: str,
        good: bool | None = None,
        at: float = 0.0,
        value: float | None = None,
        trace_id: int | None = None,
        **labels: object,
    ) -> bool:
        """Record one event; returns whether it counted as good.

        Value-based SLOs (``threshold_s`` set) derive goodness from
        ``value``; an explicit ``good`` always wins.
        """
        spec = self.specs[slo]
        if good is None:
            if value is None or spec.threshold_s is None:
                raise ValueError(
                    f"SLO {slo!r} needs either good= or (value= with a threshold)"
                )
            good = value <= spec.threshold_s
        key = (slo, _labels_key(labels))
        events = self._events.setdefault(key, [])
        if events and at < events[-1].at:
            self._unsorted.add(key)
        events.append(_Event(at=at, good=good, value=value, trace_id=trace_id))
        return good

    def _sorted_events(self, key: tuple[str, _LabelsKey]) -> list[_Event]:
        events = self._events.get(key, [])
        if key in self._unsorted:
            events.sort(key=lambda e: e.at)
            self._unsorted.discard(key)
        return events

    # -- queries ----------------------------------------------------------------

    def counts(self, slo: str) -> tuple[int, int]:
        """Lifetime ``(good, bad)`` totals across all label sets."""
        good = bad = 0
        for (name, _), events in self._events.items():
            if name != slo:
                continue
            for event in events:
                if event.good:
                    good += 1
                else:
                    bad += 1
        return good, bad

    def _window_counts(
        self, key: tuple[str, _LabelsKey], start: float, end: float
    ) -> tuple[int, int]:
        good = bad = 0
        for event in self._sorted_events(key):
            if start < event.at <= end:
                if event.good:
                    good += 1
                else:
                    bad += 1
        return good, bad

    @staticmethod
    def _burn(spec: SloSpec, good: int, bad: int) -> float:
        total = good + bad
        if total == 0:
            return 0.0
        if spec.budget <= 0.0:
            return float("inf") if bad else 0.0
        return (bad / total) / spec.budget

    def burn_rate(
        self, slo: str, window_s: float, now: float, **labels: object
    ) -> float:
        """``bad_fraction / budget`` over ``(now - window_s, now]``.

        An empty window burns nothing (a quiet service is a healthy
        service — absence of traffic must not page).
        """
        good, bad = self._window_counts(
            (slo, _labels_key(labels)), now - window_s, now
        )
        return self._burn(self.specs[slo], good, bad)

    def burn_rate_across(self, slo: str, window_s: float, now: float) -> float:
        """Burn over the window, aggregated across all label groups."""
        good = bad = 0
        for name, labels in list(self._events):
            if name != slo:
                continue
            group_good, group_bad = self._window_counts(
                (name, labels), now - window_s, now
            )
            good += group_good
            bad += group_bad
        return self._burn(self.specs[slo], good, bad)

    def error_budget_remaining(self, slo: str) -> float:
        """Lifetime budget left: 1 at no bad events, 0 at the objective
        boundary, negative once the promise is broken."""
        spec = self.specs[slo]
        good, bad = self.counts(slo)
        total = good + bad
        if total == 0:
            return 1.0
        if spec.budget <= 0.0:
            return 1.0 if bad == 0 else 0.0
        return 1.0 - (bad / total) / spec.budget

    def active_alerts(self) -> list[Alert]:
        return [alert for alert in self.alerts if alert.active]

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, now: float) -> list[Alert]:
        """Advance alert state to ``now``; returns newly fired alerts.

        A rule is active when burn ≥ factor on both its windows; the
        transition into that state fires an :class:`Alert`, the
        transition out stamps ``cleared_at``.  Call with monotonically
        non-decreasing ``now`` — the engine does not rewind.
        """
        fired: list[Alert] = []
        groups = {key for key in self._events}
        # groups that stopped producing events must still clear their
        # alerts, so also visit every group with an active alert
        groups.update((slo, labels) for (slo, labels, _) in self._active)
        for slo, labels in sorted(groups):
            spec = self.specs.get(slo)
            if spec is None:
                continue
            for window in spec.windows:
                short_burn = self.burn_rate(slo, window.short_s, now, **dict(labels))
                long_burn = self.burn_rate(slo, window.long_s, now, **dict(labels))
                is_burning = short_burn >= window.factor and long_burn >= window.factor
                key = (slo, labels, window.label)
                current = self._active.get(key)
                if is_burning and current is None:
                    alert = Alert(
                        slo=slo,
                        severity=window.severity,
                        window=window.label,
                        labels=labels,
                        fired_at=now,
                    )
                    self._active[key] = alert
                    self.alerts.append(alert)
                    fired.append(alert)
                elif not is_burning and current is not None:
                    current.cleared_at = now
                    del self._active[key]
        self.last_evaluated_at = now
        return fired

    # -- live ingest ------------------------------------------------------------

    def ingest(self, aggregator, now: float) -> int:
        """Feed events from a :class:`~repro.obs.aggregate.TelemetryAggregator`.

        Incremental: cursors track consumed trace ids and counter
        baselines so repeated polls never double-count.  Returns the
        number of events recorded this call.

        Signals consumed (only for SLOs present in ``specs``):

        * ``delivery_latency`` — newly completed publish→deliver traces
          (value = latency, exemplar = trace id);
        * ``publish_ack`` — per-service ``ds.delivered``/``ds.acked``
          deltas (good = acked; bad = pushed but still unacked one full
          poll interval later);
        * ``store_recovery`` — per-service ``store.recovery_s`` gauge,
          once per observed recovery (per-shard ``service`` label).
        """
        recorded = 0
        if "delivery_latency" in self.specs and hasattr(
            aggregator, "publish_deliver_trace_latencies"
        ):
            for trace_id, latency in sorted(
                aggregator.publish_deliver_trace_latencies().items()
            ):
                if trace_id in self._seen_latency_traces:
                    continue
                self._seen_latency_traces.add(trace_id)
                self.record(
                    "delivery_latency", at=now, value=latency, trace_id=trace_id
                )
                recorded += 1
        for service in aggregator.services():
            cursors = self._service_cursors.setdefault(service, {})
            if "publish_ack" in self.specs:
                delivered = aggregator.service_counter_total(service, "ds.delivered")
                acked = aggregator.service_counter_total(service, "ds.acked")
                # credit completions eagerly; debit a delivery only once
                # it has stayed unacked across a full poll interval — a
                # snapshot catching an ack mid-flight must not burn
                # budget (an eventually-acked straggler is recorded
                # once bad while outstanding, then credited good)
                completed = int(min(acked, delivered))
                new_good = completed - int(cursors.get("pa.good", 0))
                if new_good > 0:
                    cursors["pa.good"] = completed
                    for _ in range(new_good):
                        self.record("publish_ack", good=True, at=now, service=service)
                    recorded += new_good
                stale = int(
                    cursors.get("ds.delivered", 0)
                    - completed
                    - cursors.get("pa.bad", 0)
                )
                if stale > 0:
                    cursors["pa.bad"] = cursors.get("pa.bad", 0) + stale
                    for _ in range(stale):
                        self.record("publish_ack", good=False, at=now, service=service)
                    recorded += stale
                cursors["ds.delivered"] = delivered
            if "store_recovery" in self.specs:
                duration = aggregator.service_counter_total(service, "store.recovery_s")
                if duration and cursors.get("store.recovery_s") != duration:
                    cursors["store.recovery_s"] = duration
                    self.record(
                        "store_recovery", at=now, value=duration, service=service
                    )
                    recorded += 1
        return recorded

    # -- export -----------------------------------------------------------------

    def registry(self) -> MetricsRegistry:
        """The ``slo_*`` series at the last evaluation time, as a fresh
        :class:`MetricsRegistry`.

        Rendered through :func:`~repro.obs.exposition.to_openmetrics`
        (pass :data:`SLO_GAUGE_METRICS` as ``gauge_names``) this is the
        alerting surface a Prometheus stack would scrape.
        """
        now = self.last_evaluated_at if self.last_evaluated_at is not None else 0.0
        registry = MetricsRegistry()
        for name, spec in sorted(self.specs.items()):
            registry.inc("slo.objective", spec.objective, slo=name)
            registry.inc(
                "slo.error_budget_remaining",
                self.error_budget_remaining(name),
                slo=name,
            )
        for (name, labels), events in sorted(self._events.items()):
            label_dict = dict(labels)
            spec = self.specs[name]
            good = sum(1 for e in events if e.good)
            registry.inc("slo.good", good, slo=name, **label_dict)
            registry.inc("slo.bad", len(events) - good, slo=name, **label_dict)
            for window in spec.windows:
                registry.inc(
                    "slo.burn_rate",
                    self.burn_rate(name, window.long_s, now, **label_dict),
                    slo=name,
                    window=window.label,
                    severity=window.severity,
                    **label_dict,
                )
            for event in events:
                if event.value is None:
                    continue
                if event.trace_id is not None:
                    registry.observe_exemplar(
                        "slo.latency_s",
                        event.value,
                        event.trace_id,
                        slo=name,
                        **label_dict,
                    )
                else:
                    registry.observe("slo.latency_s", event.value, slo=name, **label_dict)
        active = self.active_alerts()
        for name in sorted(self.specs):
            for severity in ("page", "ticket"):
                registry.inc(
                    "slo.alert_active",
                    sum(1 for a in active if a.slo == name and a.severity == severity),
                    slo=name,
                    severity=severity,
                )
        return registry

    def report(self, now: float | None = None) -> dict:
        """The ``repro slo report --json`` document."""
        if now is None:
            now = self.last_evaluated_at if self.last_evaluated_at is not None else 0.0
        slos: dict[str, dict] = {}
        for name, spec in sorted(self.specs.items()):
            good, bad = self.counts(name)
            burn_rates: dict[str, dict] = {}
            for window in spec.windows:
                burn_rates[window.label] = {
                    "severity": window.severity,
                    "factor": window.factor,
                    "short_burn": round(
                        self.burn_rate_across(name, window.short_s, now), 6
                    ),
                    "long_burn": round(
                        self.burn_rate_across(name, window.long_s, now), 6
                    ),
                }
            slos[name] = {
                "description": spec.description,
                "objective": spec.objective,
                "threshold_s": spec.threshold_s,
                "unit": spec.unit,
                "good": good,
                "bad": bad,
                "error_budget_remaining": round(self.error_budget_remaining(name), 6),
                "burn_rates": burn_rates,
                "active_alerts": sum(1 for a in self.active_alerts() if a.slo == name),
            }
        return {
            "evaluated_at": now,
            "slos": slos,
            "alerts": [alert.to_dict() for alert in self.alerts],
            "active_alerts": [alert.to_dict() for alert in self.active_alerts()],
        }


def _labels_key(labels: dict[str, object]) -> _LabelsKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))
