"""repro.par — the DS's match of one publication against every registered
token (:class:`MatchPool`), in one in-process token partition or, once the
registry holds its parameter set's ``pool.SPLIT_AT`` distinct tokens, in
up to ``P3SConfig.match_workers`` worker processes; see
:mod:`repro.core.ds`.
"""

from .pool import MatchPool

__all__ = ["MatchPool"]
