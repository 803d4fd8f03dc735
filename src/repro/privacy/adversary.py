"""Threat models and participant views (paper §6.1 definitions).

* **Honest-but-curious (HBC)** — "only makes well-intentioned requests
  (honest) but remembers everything that was sent to them (curious)".
* **Colluding HBC** — HBC participants that pool what they know
  ("colluding HBC participants may share information without being
  malicious").
* **Malicious** — additionally "attempts to eavesdrop, performs replay and
  man-in-the-middle attacks, and masquerades as other participants"; in
  gadget terms a malicious non-third-party can obtain *any* token
  (masquerading as an arbitrary subscriber) and encrypt *any* metadata.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["ThreatModel", "ParticipantView", "combine_views"]


class ThreatModel(enum.Enum):
    HBC = "honest-but-curious"
    COLLUDING_HBC = "colluding-hbc"
    MALICIOUS = "malicious"


@dataclass
class ParticipantView:
    """What one participant starts out knowing, per its protocol role.

    ``base_knowledge`` holds gadget element names (a party's row of
    :mod:`repro.privacy.may_know`); ``capabilities`` holds ability-style
    elements a view gains beyond it, such as a coalition's ``T_Y`` (has
    accumulated many tokens), that attack gates consume.
    """

    name: str
    role: str
    base_knowledge: set[str] = field(default_factory=set)
    capabilities: set[str] = field(default_factory=set)

    def knowledge_under(self, model: ThreatModel) -> set[str]:
        """Initial knowledge for the closure under a threat model."""
        knowledge = set(self.base_knowledge) | set(self.capabilities)
        if model is ThreatModel.MALICIOUS and self.role in ("publisher", "subscriber"):
            # a malicious non-3rd-party can masquerade as any subscriber →
            # obtain any token (t_y, and over time the set T_Y); and any
            # legitimate client can encrypt arbitrary metadata (X).
            knowledge |= {"t_y", "T_Y", "Y", "X", "pk_pbe"}
        return knowledge


def combine_views(views: list[ParticipantView]) -> ParticipantView:
    """The pooled view of colluding participants.

    Collusion unions knowledge; the paper notes this "does not reveal any
    more information than the union of the information revealed by them
    individually" *except* where pooled tokens cross attack thresholds —
    which the ``T_Y`` capability models: a coalition holding many tokens
    gains it.
    """
    combined = ParticipantView(name="coalition", role="coalition")
    token_holders = 0
    for view in views:
        combined.base_knowledge |= view.base_knowledge
        combined.capabilities |= view.capabilities
        if "t_y" in view.base_knowledge:
            token_holders += 1
    if token_holders >= 2:
        # pooled tokens begin to cover the interest space
        combined.capabilities.add("T_Y")
    return combined
