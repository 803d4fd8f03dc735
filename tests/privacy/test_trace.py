"""Trace-based §6.1 visibility report on real protocol runs."""

import pytest

from repro.core import P3SConfig, P3SSystem, Recorder
from repro.core.sightings import opened
from repro.pbe import AttributeSpec, Interest, MetadataSchema
from repro.privacy.trace import trace_visibility


def run_scenario(use_anonymizer=True):
    """A finished run and the recorder installed for it."""
    schema = MetadataSchema(
        [AttributeSpec("topic", ("a", "b", "c", "d"))]
    )
    system = P3SSystem(P3SConfig(schema=schema, use_anonymizer=use_anonymizer))
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
        assert not report.failures(), [
            (c.component, c.claim, c.evidence) for c in report.failures()
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
        assert not report.failures()
        assert "matcher" in recorder.seen("source", system.pbe_ts.name)

    def test_failure_detection(self):
        """A run that actually leaks identity to the RS flips the claim."""
        system, recorder = run_scenario(use_anonymizer=True)
        with recorder:
            opened(system.rs.name, "source", "matcher")  # inject a leak
        report = trace_visibility(system, recorder)
        failures = report.failures()
        assert any(c.component == "rs" for c in failures)

    def test_the_ds_is_held_to_three_claims(self):
        report = trace_visibility(*run_scenario())
        assert len([c for c in report.claims if c.component == "ds"]) == 3
