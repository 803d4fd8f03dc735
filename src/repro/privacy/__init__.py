"""Privacy (§6.1): what each party may learn, and the attacks it allows.

* :mod:`repro.privacy.may_know` — what each party may learn, written once.
* :mod:`repro.privacy.trace` — a run's sightings held to those rows.
* :mod:`repro.privacy.analysis` — the two token attacks run against the
  real HVE scheme, and the time-stamped-token mitigation.

The paper's gadget framework (dependency graphs, knowledge closure,
threat models) is the tests' model of the may-know table, under
``tests/privacy/``.
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
