"""The §6.1 analysis: per-role visibility and threat-model escalation."""

import copy

import pytest

from .adversary import ParticipantView, ThreatModel, combine_views
from .structural import analyze, build_p3s_gadget, default_views


class TestHBCVisibility:
    """Assertions mirror the paper's 'Summary of ... visibility' paragraphs."""

    def setup_method(self):
        self.report = analyze(ThreatModel.HBC)

    def test_subscriber_reaches_matched_content(self):
        assert self.report.exposed("subscriber", "guid")
        assert self.report.exposed("subscriber", "payload")

    def test_subscriber_does_not_learn_metadata(self):
        # "It does not know metadata description of published payloads even
        # though it receives all PBE encrypted metadata."
        assert not self.report.exposed("subscriber", "x")

    def test_subscriber_does_not_learn_others_interests(self):
        assert not self.report.exposed("subscriber", "a_pid_x")

    def test_ds_learns_nothing_sensitive(self):
        assert self.report.exposures_for("ds") == []

    def test_rs_learns_nothing_sensitive(self):
        # "It knows neither the plaintext payload nor the metadata
        # associated with an encrypted payload."
        assert self.report.exposures_for("rs") == []

    def test_pbe_ts_cannot_associate_interest_with_subscriber(self):
        # "the PBE TS cannot associate the subscription interests to
        # subscriber identities" (it knows y by design — base knowledge,
        # not an exposure)
        assert not self.report.exposed("pbe_ts", "a_sid_y")

    def test_eavesdropper_learns_nothing_sensitive(self):
        assert self.report.exposures_for("eavesdropper") == []

    def test_publisher_learns_no_interests(self):
        assert not self.report.exposed("publisher", "y")
        assert not self.report.exposed("publisher", "a_sid_y")


class TestAnonymizerRole:
    def test_without_anonymizer_association_leaks(self):
        report = analyze(ThreatModel.HBC, views=default_views(use_anonymizer=False))
        assert report.exposed("pbe_ts", "a_sid_y")

    def test_with_anonymizer_it_does_not(self):
        report = analyze(ThreatModel.HBC, views=default_views(use_anonymizer=True))
        assert not report.exposed("pbe_ts", "a_sid_y")


class TestEscalation:
    def test_malicious_client_threatens_interest_privacy(self):
        """Paper: 'privacy of y (subscriber interest) is threatened under
        malicious participants.'"""
        report = analyze(ThreatModel.MALICIOUS)
        assert report.exposed("publisher", "y")
        exposure = next(e for e in report.exposures_for("publisher") if e.element == "y")
        assert exposure.via_attack
        assert any(step.gate_label.endswith("token-probing") for step in exposure.evidence)

    def test_colluding_subscribers_threaten_metadata(self):
        """Pooled tokens across the interest space reveal x (token
        accumulation)."""
        views = default_views()
        views["sub2"] = copy.deepcopy(views["subscriber"])
        views["sub2"].name = "sub2"
        report = analyze(
            ThreatModel.COLLUDING_HBC, views=views, colluding=["subscriber", "sub2"]
        )
        assert report.exposed("coalition", "x")
        exposure = next(e for e in report.exposures_for("coalition") if e.element == "x")
        assert exposure.via_attack

    def test_single_hbc_subscriber_cannot_reach_x(self):
        report = analyze(ThreatModel.HBC)
        assert not report.exposed("subscriber", "x")


class TestViews:
    def test_combine_views_unions_knowledge(self):
        a = ParticipantView("a", "subscriber", base_knowledge={"p"}, capabilities={"c1"})
        b = ParticipantView("b", "subscriber", base_knowledge={"q"})
        combined = combine_views([a, b])
        assert {"p", "q"} <= combined.base_knowledge
        assert "c1" in combined.capabilities

    def test_two_token_holders_gain_accumulation_capability(self):
        a = ParticipantView("a", "subscriber", base_knowledge={"t_y"})
        b = ParticipantView("b", "subscriber", base_knowledge={"t_y"})
        assert "T_Y" in combine_views([a, b]).capabilities

    def test_single_token_holder_does_not(self):
        a = ParticipantView("a", "subscriber", base_knowledge={"t_y"})
        b = ParticipantView("b", "subscriber", base_knowledge=set())
        assert "T_Y" not in combine_views([a, b]).capabilities

    def test_malicious_third_parties_do_not_get_client_powers(self):
        view = ParticipantView("ds", "ds", base_knowledge={"ct_pbe"})
        assert "t_y" not in view.knowledge_under(ThreatModel.MALICIOUS)


class TestP3SGadget:
    def test_retrieval_path(self):
        """guid + RS access yields the ABE ciphertext, then key yields payload."""
        from .knowledge import closure

        g = build_p3s_gadget()
        closed, _ = closure(g, {"guid", "rs_access", "sk_attrs"})
        assert "ct_abe" in closed
        assert "payload" in closed

    def test_no_guid_no_payload(self):
        from .knowledge import closure

        g = build_p3s_gadget()
        closed, _ = closure(g, {"rs_access", "sk_attrs"})
        assert "payload" not in closed

    def test_sensitive_inventory(self):
        g = build_p3s_gadget()
        sensitive = set(g.sensitive_elements())
        assert {"guid", "x", "y", "a_pid_x", "a_sid_y", "payload"} <= sensitive
