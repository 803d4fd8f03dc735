"""The P3S middleware: ARA, DS, RS, PBE-TS, anonymizer, and clients.

The quickest way in is :class:`~repro.core.system.P3SSystem`, which wires
a complete deployment inside the discrete-event simulator.  Individual
components are importable for custom topologies and for the privacy
analysis.
"""

from .config import ComputeTimings, P3SConfig
from .pbe_ts import SubscriptionPolicy
from .sightings import Recorder
from .system import P3SSystem

__all__ = ["P3SSystem", "P3SConfig", "ComputeTimings", "SubscriptionPolicy", "Recorder"]
