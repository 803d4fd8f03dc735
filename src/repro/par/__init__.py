"""repro.par — parallel publication/token matching.

:class:`MatchPool` fans one publication's HVE ciphertext out across many
subscriber tokens, over a process pool (``workers >= 2``) or a serial
in-process fallback — both produce identical, index-ordered results.
The DS uses it for delegated matching (see :mod:`repro.core.ds`); pool
size is :attr:`repro.core.config.P3SConfig.match_workers`.
"""

from .pool import MatchPool

__all__ = ["MatchPool"]
