"""The P3S privacy analysis: gadget tracing + executable attacks.

Three layers, mirroring §6.1:

1. **Structural analysis** — :func:`build_p3s_gadget` merges the four
   scheme gadgets into the protocol-level dependency graph;
   :func:`default_views` starts each role from its may-know row;
   :func:`analyze` closes each view's knowledge and reports which
   *sensitive* elements each role can reach under each threat model.

2. **Executable attacks** — the two weaknesses the gadget reveals are
   implemented against the *real* HVE scheme:
   :func:`token_probing_attack` (no token security: a token plus the
   ability to encrypt recovers the interest vector) and
   :func:`token_accumulation_attack` (a large token set recovers the
   attribute vector of any ciphertext).

3. **Mitigation** — :func:`with_epoch_attribute` implements the paper's
   proposed fix ("time-stamp publications and tokens, making tokens
   active only within a configurable period of time ... using time as an
   additional metadata attribute"), giving token expiry/revocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SchemaError
from ..pbe.hve import HVE, HVECiphertext, HVEMasterKey, HVEPublicKey, HVEToken
from ..pbe.schema import ANY, AttributeSpec, Interest, MetadataSchema
from .adversary import ParticipantView, ThreatModel, combine_views
from .gadget import Gadget, cpabe_gadget, pbe_gadget, pke_gadget, symmetric_gadget
from .knowledge import Derivation, closure, derivation
from .may_know import may_know

__all__ = [
    "build_p3s_gadget",
    "default_views",
    "analyze",
    "PrivacyReport",
    "Exposure",
    "token_probing_attack",
    "token_accumulation_attack",
    "with_epoch_attribute",
    "epoch_of",
]


# ---------------------------------------------------------------------------
# 1. Structural analysis
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# 2. Executable attacks (real crypto)
# ---------------------------------------------------------------------------

def token_probing_attack(
    hve: HVE,
    public_key: HVEPublicKey,
    token: HVEToken,
    schema: MetadataSchema,
) -> Interest:
    """Recover a token's interest from encrypt capability alone (§6.1).

    "If a participant is able to obtain a token t_y and create encrypted
    metadata, it will be able to reveal y by creating encrypted metadata
    for all attribute vectors and test them against the token."

    Strategy: exhaustively scan the metadata space for one matching
    vector, then flip each attribute to a different value — if the token
    still matches, that attribute is a wildcard.  Returns the recovered
    :class:`Interest`.  Raises :class:`SchemaError` if no vector matches
    (not a token from this schema/key).
    """
    probe = b"probe"

    def matches(metadata: dict[str, str]) -> bool:
        ciphertext = hve.encrypt(public_key, schema.encode_metadata(metadata), probe)
        return hve.query(token, ciphertext) is not None

    base = _find_matching_metadata(schema, matches)
    if base is None:
        raise SchemaError("token matches nothing in this metadata space")
    constraints: dict[str, object] = {}
    for spec in schema.attributes:
        alternative = next(v for v in spec.values if v != base[spec.name])
        flipped = dict(base)
        flipped[spec.name] = alternative
        if matches(flipped):
            constraints[spec.name] = ANY
        else:
            constraints[spec.name] = base[spec.name]
    return Interest(constraints)


def _find_matching_metadata(schema: MetadataSchema, matches) -> dict[str, str] | None:
    """Depth-first scan of the metadata space for one matching assignment."""

    def recurse(index: int, partial: dict[str, str]) -> dict[str, str] | None:
        if index == len(schema.attributes):
            return dict(partial) if matches(partial) else None
        spec = schema.attributes[index]
        for value in spec.values:
            partial[spec.name] = value
            found = recurse(index + 1, partial)
            if found is not None:
                return found
        del partial[spec.name]
        return None

    return recurse(0, {})


def token_accumulation_attack(
    hve: HVE,
    accumulated_tokens: dict[tuple[str, str], HVEToken],
    ciphertext: HVECiphertext,
    schema: MetadataSchema,
) -> dict[str, str]:
    """Recover a ciphertext's metadata from a large token collection (§6.1).

    "If a subscriber can subscribe to all or a significant part of the
    space of all possible subscription interests ... he can test any given
    ciphertext against all tokens to reveal the attribute vector x."

    ``accumulated_tokens`` maps ``(attribute, value)`` to a token for the
    single-attribute equality predicate — the realistic accumulation
    pattern (one subscription per attribute value over time).
    """
    recovered: dict[str, str] = {}
    for spec in schema.attributes:
        for value in spec.values:
            token = accumulated_tokens.get((spec.name, value))
            if token is not None and hve.query(token, ciphertext) is not None:
                recovered[spec.name] = value
                break
    return recovered


# ---------------------------------------------------------------------------
# 3. Mitigation: time-stamped tokens (epoch attribute)
# ---------------------------------------------------------------------------

def with_epoch_attribute(schema: MetadataSchema, num_epochs: int = 16) -> MetadataSchema:
    """Extend a schema with a rotating ``epoch`` attribute.

    Publishers stamp each item with the current epoch; the PBE-TS pins
    every issued token to the epoch of issue (never wildcard).  A token
    therefore stops matching once the epoch rotates — the paper's token
    revocation mechanism, at the cost of re-requesting tokens each epoch
    and time-synchronised clients.
    """
    if num_epochs < 2:
        raise SchemaError("need at least 2 epochs")
    epoch_values = tuple(f"e{i}" for i in range(num_epochs))
    return MetadataSchema(
        list(schema.attributes) + [AttributeSpec("epoch", epoch_values)], schema.encoding
    )


def epoch_of(now: float, epoch_length_s: float, num_epochs: int = 16) -> str:
    """The epoch value for simulation time ``now``."""
    return f"e{int(now // epoch_length_s) % num_epochs}"
