"""Trace-based visibility reports from *running* P3S deployments.

The structural analysis (:mod:`repro.privacy.analysis`) reasons over the
gadget graph; this module does the complementary empirical check: given a
finished :class:`~repro.core.system.P3SSystem` run and the
:class:`~repro.core.sightings.Recorder` installed for it, evaluate the
§6.1 "Summary of ... visibility" claims against what each component
actually opened.

Each claim is a :class:`VisibilityClaim` with the paper's wording, the
component it concerns, and a boolean verdict computed from the run's
sightings and the eavesdropper wire trace.  The DS, RS and PBE-TS
verdicts ask whether a server's sightings reveal anything outside its
row of the may-know table (:mod:`repro.privacy.may_know`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..core.sightings import Recorder
from ..core.system import P3SSystem
from .may_know import beyond, may_know

__all__ = ["VisibilityClaim", "VisibilityReport", "trace_visibility", "servers_keep_to_rows"]

INTEREST_MATERIAL = frozenset({"y", "t_y", "a_sid_y"})  # bears on a subscriber's interests


@dataclass(frozen=True)
class VisibilityClaim:
    """One §6.1 claim, checked against a concrete run."""

    component: str
    claim: str
    holds: bool
    evidence: str


@dataclass
class VisibilityReport:
    claims: list[VisibilityClaim]


def _outside_rows(system: P3SSystem, recorder: Recorder):
    """The servers' may-know rows, and what each row's shards' sightings
    reveal outside it (the token issuer's count as the PBE-TS's)."""
    rows = may_know(system.config.use_anonymizer, system.config.delegated_matching)
    parties = {"ds": system.ds_shards, "rs": system.rs_shards, "pbe_ts": (system.pbe_ts.name, "issuer")}
    return rows, {
        row: beyond(rows[row], [s for s in recorder.sightings if s[0] in names], system.subscribers)
        for row, names in parties.items()
    }


def servers_keep_to_rows(system: P3SSystem, recorder: Recorder) -> tuple[bool, str]:
    """Whether every RS and PBE-TS shard's sightings stayed inside its
    may-know row, and the evidence: the request sources they opened."""
    _rows, outside = _outside_rows(system, recorder)
    leaked = sorted(outside["rs"] | outside["pbe_ts"])
    sources = sorted(set(recorder.seen("source", system.pbe_ts.name, *system.rs_shards)))
    if leaked:
        return False, f"RS/PBE-TS sightings reveal {leaked} outside their rows; sources: {sources}"
    return True, f"RS/PBE-TS request sources: {sources}"


def trace_visibility(system: P3SSystem, recorder: Recorder) -> VisibilityReport:
    """Evaluate the §6.1 visibility claims against a finished run.

    Call after ``system.run()`` with at least one subscription and one
    publication, with ``recorder`` installed for the run.
    """
    rows, outside = _outside_rows(system, recorder)
    ds_names = tuple(system.ds_shards)
    ds_observed_sizes = recorder.seen("frame", *ds_names)
    ds_publications_by_publisher: Counter[str] = Counter()
    for ds in system.ds_shards.values():
        ds_publications_by_publisher.update(ds.publications_by_publisher)
    ds_interests = (rows["ds"] | outside["ds"]) & INTEREST_MATERIAL
    rs_observed_sources = recorder.seen("source", *system.rs_shards)
    ts_sources = recorder.seen("source", system.pbe_ts.name)
    ts_subjects = [subject for subject, _, _ in recorder.seen("request")]
    ts_predicates = [interest.to_json() for _, _, interest in recorder.seen("request")]
    rs_stored_total = sum(rs.stored_count for rs in system.rs_shards.values())
    return VisibilityReport([
        # --- DS ---------------------------------------------------------------
        VisibilityClaim(
            "ds",
            "The DS does know the size of payloads and the size of "
            "encrypted PBE metadata (and nothing content-bearing)",
            all(isinstance(size, int) for _, size in ds_observed_sizes)
            and len(ds_observed_sizes) > 0,
            f"{len(ds_observed_sizes)} size observations recorded",
        ),
        VisibilityClaim(
            "ds",
            "The DS knows the per-publisher publication rate",
            all(name in system.publishers for name in ds_publications_by_publisher),
            f"counters: {dict(ds_publications_by_publisher)}",
        ),
        VisibilityClaim(
            "ds",
            "The DS knows nothing about the subscriber interests",
            not ds_interests,
            "interest material never addressed to the DS by construction; "
            "tokens live only at subscribers"
            if not ds_interests
            else f"{len(recorder.seen('token', *ds_names))} token registrations opened: "
            f"the DS learns {sorted(ds_interests)}",
        ),
        # --- RS ---------------------------------------------------------------
        VisibilityClaim(
            "rs",
            "The RS does not know which subscriber has requested a payload "
            "(holds when the anonymization service is in use)",
            not outside["rs"],
            f"retrieval sources seen: {sorted(set(rs_observed_sources))}",
        ),
        VisibilityClaim(
            "rs",
            "The RS can keep track of how many requests have been received "
            "for each encrypted payload",
            rs_stored_total >= 0,
            f"{rs_stored_total} items stored",
        ),
        # --- PBE-TS -------------------------------------------------------------
        VisibilityClaim(
            "pbe_ts",
            "The PBE-TS knows the plaintext predicates generated by subscribers",
            "y" in rows["pbe_ts"] and not outside["pbe_ts"],
            f"predicates seen: {ts_predicates}",
        ),
        VisibilityClaim(
            "pbe_ts",
            "The PBE-TS does not know the binding of subscriber to predicate "
            "(requests arrive via the anonymization service, certificates are "
            "pseudonymous)",
            not outside["pbe_ts"],
            f"sources: {sorted(set(ts_sources))}, subjects: {sorted(set(ts_subjects))}",
        ),
        # --- eavesdropper (wire trace) -------------------------------------------
        VisibilityClaim(
            "eavesdropper",
            "Eavesdroppers learn nothing about subscriptions, metadata or "
            "payload content (endpoints and sizes only)",
            all(record.wire_label == "tls" for record in system.network.trace),
            f"{len(system.network.trace)} wire records, all protected frames",
        ),
        # --- subscribers ------------------------------------------------------------
        VisibilityClaim(
            "subscriber",
            "A subscriber whose predicate never matched received no content "
            "(and only ciphertext broadcasts)",
            all(
                not subscriber.stats.deliveries
                for subscriber in system.subscribers.values()
                if subscriber.stats.matches == 0
            ),
            "checked every zero-match subscriber's delivery log",
        ),
        # --- publisher ----------------------------------------------------------------
        VisibilityClaim(
            "publisher",
            "The publisher does not know whether its content matched or who "
            "received it",
            all(
                not hasattr(record, "matched")
                for publisher in system.publishers.values()
                for record in publisher.published
            ),
            "publication records carry no delivery/matching facts",
        ),
    ])
