"""What each party may learn (§6.1), written once.

A row per party: the gadget elements (``tests/privacy/gadget.py``) it may
learn under a deployment's settings.  The tests' structural analysis starts
each party's knowledge from its row (``tests/privacy/structural.py``);
a run is held to the rows by what its sightings (:mod:`repro.core.sightings`)
reveal (:mod:`repro.privacy.trace`, and through it the chaos privacy
invariants).  Edit a cell here and every reader moves with it.
"""

from __future__ import annotations

from typing import Collection

__all__ = ["MAY_KNOW", "may_know", "reveals", "beyond"]

# §4.3's flows: the anonymizer in use, tokens kept at their subscribers.
MAY_KNOW: dict[str, frozenset[str]] = {
    "publisher": frozenset({  # X: a publisher encrypts arbitrary metadata
        "guid", "x", "payload", "policy", "pp_abe", "pk_pbe", "pid", "a_pid_x", "ct_pbe",
        "ct_abe", "X",
    }),
    "subscriber": frozenset({
        "y", "sid", "a_sid_y", "t_y", "ct_pbe", "attrs", "sk_attrs", "rs_access", "k_s",
    }),
    "ds": frozenset({"ct_pbe", "ct_abe", "guid", "pid"}),
    "rs": frozenset({"ct_abe", "guid", "pke_sk", "rs_access"}),
    "pbe_ts": frozenset({"y", "sk_pbe", "pk_pbe"}),  # plaintext predicates, master key
    "anonymizer": frozenset({"sid", "pke_ct"}),  # who asks, and the sealed request
    "eavesdropper": frozenset({"guid"}),  # footnote 1: GUIDs may travel in the clear
}
# §4.1: without the anonymizer the RS and the PBE-TS see who asks.
WITHOUT_ANONYMIZER = {"rs": {"sid"}, "pbe_ts": {"sid"}}
# core/ds: delegated matching hands the DS each subscriber's tokens.
DELEGATED_MATCHING = {"ds": {"sid", "t_y"}}


def may_know(use_anonymizer: bool, delegated_matching: bool) -> dict[str, frozenset[str]]:
    """Each party's row in a deployment with these settings."""
    rows = dict(MAY_KNOW)
    settings = ((not use_anonymizer, WITHOUT_ANONYMIZER), (delegated_matching, DELEGATED_MATCHING))
    for applies, extra in settings:
        if applies:
            rows.update({party: rows[party] | elements for party, elements in extra.items()})
    return rows


def reveals(sighting: tuple[str, str, object], subscribers: Collection[str]) -> set[str]:
    """The elements a ``(party, what, value)`` sighting shows its party: a
    ``request``'s predicate, a ``token``, and the identity of the subscriber
    a ``source``, or the first field of a ``link``, ``request`` or ``token``,
    names.  A ``frame``'s kind and size show nothing."""
    _party, what, value = sighting
    if what == "frame":
        return set()
    who = value if what == "source" else value[0]
    shown = {"request": {"y"}, "token": {"t_y"}}.get(what, set())
    return shown | {"sid"} if who in subscribers else shown


def beyond(row: Collection[str], sightings, subscribers: Collection[str]) -> set[str]:
    """What ``sightings`` reveal outside ``row``: empty when their party kept to it."""
    shown: set[str] = set()
    for sighting in sightings:
        shown |= reveals(sighting, subscribers)
    return shown - set(row)
