"""The §6.1 structural analysis: the P3S gadget, each party's view, and
what each party can derive under each threat model.

:func:`build_p3s_gadget` merges the four scheme gadgets into the
protocol-level dependency graph; :func:`default_views` starts each role
from its may-know row (:mod:`repro.privacy.may_know`); :func:`analyze`
closes each view's knowledge and reports which *sensitive* elements each
role can reach.  A model the tests hold the program's may-know table to;
the program itself runs none of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.privacy.may_know import may_know

from .adversary import ParticipantView, ThreatModel, combine_views
from .gadget import Gadget, cpabe_gadget, pbe_gadget, pke_gadget, symmetric_gadget
from .knowledge import Derivation, closure, derivation


def build_p3s_gadget() -> Gadget:
    """The protocol-level gadget: PBE + CP-ABE + PKE + symmetric, fused.

    Renames fuse the scheme gadgets onto P3S's information elements: the
    PBE plaintext *is* the GUID; the CP-ABE plaintext *is* (GUID,
    payload); the RS hands out ``ct_abe`` to anyone presenting the GUID.
    """
    g = Gadget("p3s")
    g.merge(pbe_gadget(), rename={"m": "guid"})
    g.merge(cpabe_gadget())
    g.merge(pke_gadget())
    g.merge(symmetric_gadget())
    # Retrieval: knowing the GUID and being able to reach the RS yields the
    # CP-ABE ciphertext (that is the whole point of the PBE match).
    g.add_element("rs_access", description="ability to send retrieval requests to the RS")
    g.add_gate(["guid", "rs_access"], "ct_abe", "RS-Retrieve")
    return g


def default_views(use_anonymizer: bool = True) -> dict[str, ParticipantView]:
    """Per-role initial knowledge: each party's may-know row
    (:mod:`repro.privacy.may_know`) for the §4.3 message flows."""
    return {
        party: ParticipantView(name=party, role=party, base_knowledge=set(row))
        for party, row in may_know(use_anonymizer, delegated_matching=False).items()
    }


@dataclass(frozen=True)
class Exposure:
    """One sensitive element reachable by one participant."""

    participant: str
    element: str
    via_attack: bool
    evidence: tuple[Derivation, ...]


@dataclass
class PrivacyReport:
    """Outcome of one structural analysis run."""

    model: ThreatModel
    exposures: list[Exposure] = field(default_factory=list)

    def exposed(self, participant: str, element: str) -> bool:
        return any(
            e.participant == participant and e.element == element for e in self.exposures
        )

    def exposures_for(self, participant: str) -> list[Exposure]:
        return [e for e in self.exposures if e.participant == participant]


def analyze(
    model: ThreatModel,
    views: dict[str, ParticipantView] | None = None,
    colluding: list[str] | None = None,
) -> PrivacyReport:
    """Close every view's knowledge and collect sensitive-element exposures.

    Knowledge a role starts with (e.g. a subscriber's own interest) is not
    reported as an exposure — only *derived* knowledge is.
    """
    gadget = build_p3s_gadget()
    views = views or default_views()
    if model is ThreatModel.COLLUDING_HBC and colluding:
        pooled = combine_views([views[name] for name in colluding])
        views = dict(views)
        views[pooled.name] = pooled
    report = PrivacyReport(model=model)
    for name, view in views.items():
        initial = view.knowledge_under(model)
        closed, _ = closure(gadget, initial)
        for element in gadget.sensitive_elements():
            if element in closed and element not in initial:
                evidence = derivation(gadget, initial, element) or []
                report.exposures.append(
                    Exposure(
                        participant=name,
                        element=element,
                        via_attack=any(step.attack for step in evidence),
                        evidence=tuple(evidence),
                    )
                )
    return report
