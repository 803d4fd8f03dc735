"""Simulator-side fault injection: a FaultSchedule installed on a Network.

:class:`SimFaultInjector` implements the
:meth:`repro.net.network.Network.set_fault_injector` contract: called
once per transmission with ``(src, dst, message, base_delay)``, it
returns the delivery-delay list for that frame.  All decisions are pure
functions of the schedule, the simulated clock, and per-fault hit
counters — the injector holds no entropy of its own, so a replayed
schedule makes identical decisions.

The injector also keeps a deterministic *application log* (which fault
fired, on which link, how often) that the runner folds into the JSON
report, and bumps ``chaos.*`` operation counters through the
observability hooks so injected faults show up next to the protocol
metrics they perturb.
"""

from __future__ import annotations

from collections import Counter

from .schedule import FaultSchedule

__all__ = ["SimFaultInjector"]


class SimFaultInjector:
    """Evaluate a :class:`FaultSchedule` against live simulator traffic."""

    def __init__(self, schedule: FaultSchedule, sim):
        self.schedule = schedule
        self.sim = sim
        # fault windows are relative to the arming instant (time 0 until
        # arm() moves it), so the fault-free subscription phase never
        # shifts them
        self.epoch = 0.0
        self._window_hits = [0] * len(schedule.faults)
        # (fault_index, kind, src, dst) -> times applied
        self.applied: Counter[tuple[int, str, str, str]] = Counter()

    def arm(self, epoch: float) -> None:
        """Re-base the schedule's time origin (typically ``sim.now``)."""
        self.epoch = epoch

    def applied_summary(self) -> list[dict]:
        """Deterministic, JSON-ready log of every fault application."""
        return [
            {"fault": index, "kind": kind, "src": src, "dst": dst, "count": count}
            for (index, kind, src, dst), count in sorted(self.applied.items())
        ]

    def __call__(self, src: str, dst: str, message, base_delay: float) -> list[float]:
        t = self.sim.now - self.epoch
        for index, fault in enumerate(self.schedule.faults):
            if not fault.in_window(t) or not fault.matches_link(src, dst):
                continue
            self._window_hits[index] += 1
            if fault.hits and self._window_hits[index] not in fault.hits:
                continue
            # first matching fault wins: deterministic and independently
            # removable, which is what minimization relies on
            self.applied[(index, fault.kind, src, dst)] += 1
            if fault.kind in ("drop", "partition"):
                return []
            if fault.kind in ("delay", "reorder"):
                return [base_delay + fault.delay_s]
            # duplicate: the copy trails by the configured gap
            return [base_delay, base_delay + max(fault.delay_s, 0.001)]
        return [base_delay]
