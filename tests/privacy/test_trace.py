"""Trace-based §6.1 visibility report on real protocol runs."""

import pytest

from repro.core import P3SConfig, P3SSystem, Recorder
from repro.core.sightings import opened
from repro.obs import Observability
from repro.pbe import AttributeSpec, Interest, MetadataSchema
from repro.privacy.trace import trace_visibility
from repro.store.codec import NS_TOKENS

DS_INTEREST_CLAIM = "The DS knows nothing about the subscriber interests"


def run_scenario(**settings):
    """A finished run and the recorder installed for it."""
    schema = MetadataSchema(
        [AttributeSpec("topic", ("a", "b", "c", "d"))]
    )
    system = P3SSystem(P3SConfig(schema=schema, **settings))
    with Recorder() as recorder:
        matcher = system.add_subscriber("matcher", {"org"})
        bystander = system.add_subscriber("bystander", {"org"})
        system.subscribe(matcher, Interest({"topic": "a"}))
        system.subscribe(bystander, Interest({"topic": "d"}))
        system.run()
        publisher = system.add_publisher("pub")
        system.run()
        publisher.publish({"topic": "a"}, b"payload-1", policy="org")
        publisher.publish({"topic": "a"}, b"payload-2", policy="org")
        system.run()
    return system, recorder


class TestTraceVisibility:
    def test_all_claims_hold_with_anonymizer(self):
        report = trace_visibility(*run_scenario(use_anonymizer=True))
        assert not [c for c in report.claims if not c.holds], [
            (c.component, c.claim, c.evidence) for c in report.claims if not c.holds
        ]

    def test_every_component_covered(self):
        report = trace_visibility(*run_scenario())
        components = {claim.component for claim in report.claims}
        assert {"ds", "rs", "pbe_ts", "eavesdropper", "subscriber", "publisher"} <= components

    def test_pbe_ts_binding_claim_relaxed_without_anonymizer(self):
        """Without the anonymizer the binding claim is vacuous (the paper's
        own caveat), so the report still holds — but the sources now name
        subscribers."""
        system, recorder = run_scenario(use_anonymizer=False)
        report = trace_visibility(system, recorder)
        assert not [c for c in report.claims if not c.holds]
        assert "matcher" in recorder.seen("source", system.pbe_ts.name)

    def test_failure_detection(self):
        """A run that actually leaks identity to the RS flips the claim."""
        system, recorder = run_scenario(use_anonymizer=True)
        with recorder:
            opened(system.rs.name, "source", "matcher")  # inject a leak
        report = trace_visibility(system, recorder)
        failures = [c for c in report.claims if not c.holds]
        assert any(c.component == "rs" for c in failures)

    def test_the_ds_is_held_to_three_claims(self):
        report = trace_visibility(*run_scenario())
        assert len([c for c in report.claims if c.component == "ds"]) == 3

    @pytest.mark.parametrize("delegated", [False, True], ids=["local", "delegated"])
    def test_the_ds_interest_claim_follows_the_matching_mode(self, delegated):
        """Delegated matching hands the DS every token (core/ds), so the DS
        knows nothing about interests only while matching stays local."""
        system, recorder = run_scenario(delegated_matching=delegated)
        (claim,) = [
            c for c in trace_visibility(system, recorder).claims
            if c.claim == DS_INTEREST_CLAIM
        ]
        assert claim.holds is not delegated
        registrations = recorder.seen("token", *system.ds_shards)
        assert len(registrations) == (2 if delegated else 0)  # one per subscriber
        if delegated:
            assert claim.evidence.startswith("2 token registrations opened")


def test_a_ds_without_delegated_matching_refuses_a_clients_tokens():
    """``P3SConfig()`` hands the DS no matcher: a subscriber that delegates
    its tokens anyway has them refused unopened, and keeps the broadcast."""
    system = P3SSystem(P3SConfig(schema=MetadataSchema([AttributeSpec("topic", ("a", "b"))])))
    obs = Observability()
    with obs.installed(), Recorder() as recorder:
        subscriber = system.add_subscriber("matcher", {"org"})
        subscriber.delegate_tokens = True
        system.subscribe(subscriber, Interest({"topic": "a"}))
        system.run()
        publisher = system.add_publisher("pub")
        system.run()
        publisher.publish({"topic": "b"}, b"miss", policy="org")
        system.run()
    ds = system.ds
    assert list(ds.registered_tokens) == [] and ds.store.items(NS_TOKENS) == []
    assert ds._match_pool is None
    assert obs.metrics.counter_total("op.ds.token_rejected") == 1
    assert subscriber.stats.metadata_seen == 1  # a miss still reaches it: broadcast
    (claim,) = [
        c for c in trace_visibility(system, recorder).claims if c.claim == DS_INTEREST_CLAIM
    ]
    assert claim.holds, claim.evidence
