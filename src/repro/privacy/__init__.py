"""Privacy analysis: the paper's gadget framework, made executable.

* :mod:`repro.privacy.gadget` — information-dependency graphs (Fig. 5).
* :mod:`repro.privacy.knowledge` — knowledge closure + derivations.
* :mod:`repro.privacy.adversary` — HBC / colluding / malicious models.
* :mod:`repro.privacy.may_know` — what each party may learn, written once.
* :mod:`repro.privacy.analysis` — the P3S analysis, the two token
  attacks run against the real HVE scheme, and the time-stamped-token
  mitigation.
"""

from .analysis import (
    epoch_of,
    token_accumulation_attack,
    token_probing_attack,
    with_epoch_attribute,
)

__all__ = [
    "token_probing_attack",
    "token_accumulation_attack",
    "with_epoch_attribute",
    "epoch_of",
]
