"""The invariant catalogue checked after every chaos run.

Four families, each grounding one of the paper's guarantees against a
faulted execution:

* **delivery** — the delivered multiset equals the plaintext oracle set
  (:mod:`repro.chaos.oracle`): nothing missing, no phantoms, and no
  duplicate deliveries even when the wire duplicated frames;
* **privacy** — the §6.1 visibility claims (reused verbatim from
  :func:`repro.privacy.trace.trace_visibility`) still hold, and
  additionally no payload plaintext sits in RS-persisted state and no
  subscriber identity is among the request sources the RS/PBE-TS
  opened (the run's :class:`~repro.core.sightings.Recorder`) — retries
  and duplicates must not widen what any honest-but-curious component
  sees;
* **durability** — state recovered after a (simulated) crash equals the
  committed pre-crash state, and TTL-expired ciphertext does not
  survive in any store file (composes with :mod:`repro.store.faults`);
* **liveness** — once the fault window closes, every matched
  publication is eventually delivered and the simulation reaches
  quiescence (no protocol process parked forever);
* **alerting** (opt-in per profile) — the SLO engine's burn-rate alerts
  track the injected faults: every *material* applied fault fires its
  mapped alert family, no alert fires outside the families the applied
  faults can explain (zero alerts on a fault-free run), and every alert
  clears once the system recovers.  This closes the observability loop:
  chaos proves not just that the system survives faults but that the
  alerting surface would have told an operator about them.

Each check returns :class:`InvariantResult` rows; a run passes iff all
rows pass.  The checks are pure functions of run artifacts so they can
be unit-tested against deliberately broken states (the mutation tests
in ``tests/chaos/``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Mapping

from ..privacy.trace import trace_visibility

__all__ = [
    "InvariantResult",
    "check_delivery",
    "check_privacy",
    "check_durability",
    "check_liveness",
    "check_alerting",
    "scan_files_for",
]

DeliveryMap = Mapping[str, tuple[bytes, ...]]


@dataclass(frozen=True)
class InvariantResult:
    """One checked invariant: family, name, verdict, evidence."""

    family: str  # delivery | privacy | durability | liveness
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
        }


def _decode(payloads: Iterable[bytes]) -> list[str]:
    return [p.decode("utf-8", "replace") for p in payloads]


# -- delivery ---------------------------------------------------------------


def check_delivery(
    expected: DeliveryMap,
    actual: DeliveryMap,
    delivered_ids: Mapping[str, list[int]] | None = None,
) -> list[InvariantResult]:
    """Delivered multiset == oracle set; no phantoms; no duplicates.

    ``delivered_ids`` maps subscriber → the publication_id of each
    delivery, in delivery order — the duplicate check is per publication
    id, which is stable across runs (GUIDs are randomized per run).
    """
    results: list[InvariantResult] = []
    mismatches = {
        name: {"expected": _decode(expected.get(name, ())), "actual": _decode(got)}
        for name, got in sorted(actual.items())
        if tuple(expected.get(name, ())) != tuple(got)
    }
    results.append(
        InvariantResult(
            "delivery",
            "delivery.matches_oracle",
            not mismatches,
            "delivered sets equal the plaintext oracle" if not mismatches else str(mismatches),
        )
    )
    phantoms = {
        name: _decode(p for p in got if p not in expected.get(name, ()))
        for name, got in sorted(actual.items())
        if any(p not in expected.get(name, ()) for p in got)
    }
    results.append(
        InvariantResult(
            "delivery",
            "delivery.no_phantoms",
            not phantoms,
            "no subscriber received an unmatched payload" if not phantoms else str(phantoms),
        )
    )
    duplicates = {}
    for name, ids in sorted((delivered_ids or {}).items()):
        repeated = sorted({i for i in ids if ids.count(i) > 1})
        if repeated:
            duplicates[name] = repeated
    results.append(
        InvariantResult(
            "delivery",
            "delivery.no_duplicates",
            not duplicates,
            "every publication delivered at most once per subscriber"
            if not duplicates
            else f"publication ids delivered more than once: {duplicates}",
        )
    )
    return results


# -- privacy ----------------------------------------------------------------


def check_privacy(system, recorder, payloads: Iterable[bytes]) -> list[InvariantResult]:
    """§6.1 visibility claims + at-rest plaintext + identity-leak scans,
    over the sightings ``recorder`` took during the run."""
    results: list[InvariantResult] = []
    report = trace_visibility(system, recorder)
    for claim in report.claims:
        results.append(
            InvariantResult(
                "privacy",
                f"privacy.visibility.{claim.component}",
                claim.holds,
                claim.claim if claim.holds else f"{claim.claim} — {claim.evidence}",
            )
        )
    # No payload plaintext in anything any RS shard persisted: the
    # CP-ABE pipeline must keep content sealed even across retried/
    # duplicated submissions and replica handoffs.  Scans raw engine
    # values (framing + ciphertext).
    rs_shards = list(system.rs_shards.values())
    stored = [
        value
        for rs in rs_shards
        for _key, value in rs.store.engine.items("items")
    ]
    payload_list = list(payloads)
    leaked = sorted(
        _decode(
            payload
            for payload in payload_list
            if payload and any(payload in value for value in stored)
        )
    )
    results.append(
        InvariantResult(
            "privacy",
            "privacy.no_plaintext_at_rs",
            not leaked,
            f"scanned {len(stored)} stored values for {len(payload_list)} payloads"
            if not leaked
            else f"payload plaintext found in RS store: {leaked}",
        )
    )
    # No subscriber identity in the request sources any server opened —
    # anonymization must hold across every retry attempt, not just the
    # first request.
    subscriber_names = set(system.subscribers)
    seen = set(recorder.seen("source", system.pbe_ts.name, *(rs.name for rs in rs_shards)))
    identified = sorted(subscriber_names & seen)
    results.append(
        InvariantResult(
            "privacy",
            "privacy.no_subscriber_identity_at_servers",
            not system.config.use_anonymizer or not identified,
            f"RS/PBE-TS request sources: {sorted(seen)}"
            if not identified
            else f"subscriber identities reached servers: {identified}",
        )
    )
    return results


# -- durability -------------------------------------------------------------


def scan_files_for(root: str, needle: bytes) -> list[str]:
    """Paths under ``root`` whose raw bytes contain ``needle``."""
    found: list[str] = []
    for directory, _subdirs, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                if needle in handle.read():
                    found.append(path)
    return found


def check_durability(
    committed: Mapping[bytes, bytes], recovered: Mapping[bytes, bytes]
) -> list[InvariantResult]:
    """Recovered state == committed state.

    ``committed`` is the key→value map whose writes completed before the
    crash (mirrored at the caller); ``recovered`` is what a fresh engine
    over the same directory reports.  Whether expired ciphertext is gone
    from every store file (§4.3 "Deletion") is :func:`scan_files_for`'s
    question.
    """
    results: list[InvariantResult] = []
    lost = sorted(key.hex() for key in committed if key not in recovered)
    corrupt = sorted(
        key.hex()
        for key in committed
        if key in recovered and recovered[key] != committed[key]
    )
    results.append(
        InvariantResult(
            "durability",
            "durability.committed_recovered",
            not lost and not corrupt,
            f"all {len(committed)} committed items recovered intact"
            if not lost and not corrupt
            else f"lost: {lost}, corrupt: {corrupt}",
        )
    )
    resurrected = sorted(key.hex() for key in recovered if key not in committed)
    results.append(
        InvariantResult(
            "durability",
            "durability.no_resurrection",
            not resurrected,
            "no deleted/uncommitted key reappeared"
            if not resurrected
            else f"keys resurrected by recovery: {resurrected}",
        )
    )
    return results


# -- alerting ---------------------------------------------------------------

# Applied-fault kind -> the SLOs whose alerts it can legitimately
# explain.  Latency-shaped faults (loss forces a retry cycle,
# delay/reorder stretch frames directly) map to the latency SLO — and,
# should they starve a delivery entirely, to completeness; a duplicated
# frame reaching a subscriber trips GUID dedup (a delivery-integrity
# bad event).  Duplicates elsewhere (DS->RS store, pub->DS publish) are
# absorbed idempotently and map to nothing.
_FAULT_ALERT_SLOS: dict[str, tuple[str, ...]] = {
    "drop": ("delivery_latency", "delivery_completeness"),
    "partition": ("delivery_latency", "delivery_completeness"),
    "delay": ("delivery_latency",),
    "reorder": ("delivery_latency",),
    "duplicate": ("delivery_integrity",),
}


def _explainable_slos(applied_faults: Iterable[Mapping]) -> set:
    """Every SLO some applied fault could legitimately have degraded."""
    may_fire: set = set()
    for entry in applied_faults:
        kind = entry["kind"]
        if kind == "duplicate" and not entry.get("dst", "").startswith("sub"):
            continue  # idempotently absorbed; cannot reach a subscriber's dedup
        may_fire.update(_FAULT_ALERT_SLOS.get(kind, ()))
    return may_fire


def check_alerting(
    slo_report: Mapping,
    applied_faults: list[Mapping],
    schedule: Mapping,
) -> list[InvariantResult]:
    """Burn-rate alerts track the injected faults (see module docstring).

    ``slo_report`` is :meth:`repro.obs.slo.SloEngine.report` output for
    the run's event timeline; ``applied_faults`` is the injector's
    applied summary; ``schedule`` is the run's schedule dict (carried
    for evidence).  Pure in its inputs, so mutation tests can feed
    hand-built states.

    The two directions of the closure:

    * **detection** (``expected_fired``) — whether an injected fault
      *degrades* an SLO depends on seed physics (a dropped frame may be
      retried inside the threshold's headroom; a duplicate may reach a
      non-matching subscriber), but once a mapped SLO records a bad
      event the chaos windows (factor 1, sparse traffic) *guarantee* an
      alert — silence there is an engine bug;
    * **attribution** (``no_spurious``) — every fired alert must be
      explainable by some applied fault; a fault-free run must fire
      nothing.
    """
    may_fire = _explainable_slos(applied_faults)
    slos = slo_report.get("slos", {})
    # detection is owed wherever an explainable SLO actually degraded
    must_fire = {
        slo for slo in may_fire if slos.get(slo, {}).get("bad", 0) > 0
    }
    fired = {alert["slo"] for alert in slo_report.get("alerts", [])}

    results: list[InvariantResult] = []
    silent = sorted(must_fire - fired)
    results.append(
        InvariantResult(
            "alerting",
            "alerting.expected_fired",
            not silent,
            f"every material fault family alerted (fired: {sorted(fired)})"
            if not silent
            else f"material faults fired no alert for: {silent} "
            f"(fired: {sorted(fired)}, applied: {applied_faults})",
        )
    )
    spurious = sorted(fired - may_fire)
    results.append(
        InvariantResult(
            "alerting",
            "alerting.no_spurious",
            not spurious,
            "no alert fired without an applied fault to explain it"
            if not spurious
            else f"alerts fired with no explaining fault: {spurious} "
            f"(applied: {applied_faults})",
        )
    )
    stuck = sorted(
        {
            f"{alert['slo']}:{alert['severity']}:{alert['window']}"
            for alert in slo_report.get("alerts", [])
            if alert.get("cleared_at") is None
        }
    )
    results.append(
        InvariantResult(
            "alerting",
            "alerting.all_cleared",
            not stuck,
            "every fired alert cleared after recovery"
            if not stuck
            else f"alerts still active at end of run: {stuck}",
        )
    )
    return results


# -- liveness ---------------------------------------------------------------


def check_liveness(
    system,
    expected: DeliveryMap,
    actual: DeliveryMap,
) -> list[InvariantResult]:
    """After the fault window: everything matched delivers, nothing wedges."""
    results: list[InvariantResult] = []
    missing = {
        name: _decode(p for p in payloads if p not in actual.get(name, ()))
        for name, payloads in sorted(expected.items())
        if any(p not in actual.get(name, ()) for p in payloads)
    }
    results.append(
        InvariantResult(
            "liveness",
            "liveness.eventual_delivery",
            not missing,
            "every oracle-matched publication was delivered"
            if not missing
            else f"matched but never delivered: {missing}",
        )
    )
    quiescent = system.sim.quiescent
    results.append(
        InvariantResult(
            "liveness",
            "liveness.quiescent",
            quiescent,
            "simulation reached quiescence (only daemon events remain)"
            if quiescent
            else f"{system.sim.pending_events} events pending, non-daemon work stuck",
        )
    )
    return results
