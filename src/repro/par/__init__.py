"""repro.par — the DS's match of one publication against every registered
token (:class:`MatchPool`), in token partitions held in process or by
``P3SConfig.match_workers`` worker processes; see :mod:`repro.core.ds`.
"""

from .pool import MatchPool

__all__ = ["MatchPool"]
