"""repro.chaos: deterministic fault injection + invariant checking.

FoundationDB-style discipline for the P3S reproduction: every run is
driven by a seeded :class:`~repro.chaos.schedule.FaultSchedule`
(drop/delay/duplicate/reorder/partition), executed against the real
protocol stack on either substrate — the discrete-event simulator via
:class:`~repro.chaos.inject.SimFaultInjector`, real TCP via the tests'
fault proxy (``tests/chaos/proxy.py``) — and validated by the invariant
catalogue in :mod:`repro.chaos.invariants` (delivery, privacy,
durability, liveness).  ``repro chaos run --seed N`` replays any run
bit-identically; ``--minimize`` shrinks a failing schedule to a
1-minimal fault set.  See ``docs/CHAOS.md``.
"""

from .runner import minimize, run_chaos
from .schedule import PROFILES, FaultSchedule

__all__ = ["FaultSchedule", "PROFILES", "minimize", "run_chaos"]
