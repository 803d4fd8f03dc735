"""The may-know table is the one statement of what each party may learn.

One edited cell moves every reader together: the structural analysis's
exposures, the §6.1 trace claims, and the chaos identity invariant.
"""

import pytest

from repro.chaos.invariants import check_privacy
from repro.core.sightings import opened
from repro.pbe import Interest
from repro.privacy.may_know import MAY_KNOW, may_know, reveals
from repro.privacy.trace import trace_visibility

from .adversary import ThreatModel
from .structural import analyze
from .test_trace import run_scenario

SUBSCRIBERS = {"alice"}
BINDING = "The PBE-TS does not know the binding of subscriber to predicate"


@pytest.mark.parametrize(
    "sighting, shown",
    [
        (("ds", "frame", ("metadata", 120)), set()),
        (("rs", "source", "anon"), set()),
        (("rs", "source", "alice"), {"sid"}),
        (("anon", "link", ("alice", "rs")), {"sid"}),
        (("issuer", "request", ("sub-1f", 0.0, Interest({"topic": "a"}))), {"y"}),
        (("issuer", "request", ("alice", 0.0, Interest({"topic": "a"}))), {"y", "sid"}),
        (("ds", "token", ("alice", b"token")), {"t_y", "sid"}),
    ],
)
def test_what_a_sighting_reveals(sighting, shown):
    assert reveals(sighting, SUBSCRIBERS) == shown


def test_settings_widen_the_server_rows():
    plain = may_know(use_anonymizer=True, delegated_matching=False)
    assert plain == MAY_KNOW
    bare = may_know(use_anonymizer=False, delegated_matching=False)
    assert {party for party in MAY_KNOW if bare[party] != plain[party]} == {"rs", "pbe_ts"}
    delegated = may_know(use_anonymizer=True, delegated_matching=True)
    assert delegated["ds"] - plain["ds"] == {"sid", "t_y"}


def verdicts(system, recorder):
    """(the analysis exposes the PBE-TS's binding, the trace's binding claim
    holds, the chaos identity invariant passes), for one run."""
    (binding,) = [
        claim for claim in trace_visibility(system, recorder).claims
        if claim.claim.startswith(BINDING)
    ]
    (identity,) = [
        result for result in check_privacy(system, recorder, [])
        if result.name == "privacy.no_subscriber_identity_at_servers"
    ]
    exposed = analyze(ThreatModel.HBC).exposed("pbe_ts", "a_sid_y")
    return exposed, binding.holds, identity.passed


def test_one_cell_moves_every_reader(monkeypatch):
    """Granting the PBE-TS subscriber identities with the anonymizer on:
    the analysis now derives the subscriber-interest binding, and a run in
    which the PBE-TS opened a subscriber's request no longer breaks either
    the trace claim or the chaos invariant."""
    system, recorder = run_scenario(use_anonymizer=True)
    with recorder:
        opened(system.pbe_ts.name, "source", "matcher")
    assert verdicts(system, recorder) == (False, False, False)
    monkeypatch.setitem(MAY_KNOW, "pbe_ts", MAY_KNOW["pbe_ts"] | {"sid"})
    assert verdicts(system, recorder) == (True, True, True)
