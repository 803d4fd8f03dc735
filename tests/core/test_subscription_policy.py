"""Subscription control at the PBE-TS + certificate pseudonymity."""

import pytest

from repro.core import P3SConfig, P3SSystem, SubscriptionPolicy
from repro.errors import TokenRequestError
from repro.pbe import ANY, AttributeSpec, Interest, MetadataSchema


def make_system(policy=None):
    schema = MetadataSchema(
        [
            AttributeSpec("topic", ("a", "b", "c", "d")),
            AttributeSpec("region", ("n", "s", "e", "w")),
        ]
    )
    return P3SSystem(P3SConfig(schema=schema, subscription_policy=policy))


class TestPseudonymity:
    def test_subscriber_certificate_is_pseudonymous(self):
        system = make_system()
        alice = system.add_subscriber("alice", {"org:acme"})
        assert alice.credentials.certificate.subject != "alice"
        assert alice.credentials.certificate.subject.startswith("sub-")

    def test_pbe_ts_sees_pseudonyms_not_names(self):
        system = make_system()
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "a"}))
        system.run()
        assert system.pbe_ts.observed_subjects
        assert "alice" not in system.pbe_ts.observed_subjects

    def test_distinct_subscribers_distinct_pseudonyms(self):
        system = make_system()
        a = system.add_subscriber("a", {"x"})
        b = system.add_subscriber("b", {"x"})
        assert a.credentials.certificate.subject != b.credentials.certificate.subject


class TestSubscriptionPolicy:
    def test_min_constrained_attributes_enforced(self):
        policy = SubscriptionPolicy(min_constrained_attributes=2)
        system = make_system(policy)
        alice = system.add_subscriber("alice", {"org:acme"})
        event = system.subscribe(alice, Interest({"topic": "a"}))  # only 1 constrained
        with pytest.raises(TokenRequestError):
            system.run()
        assert system.pbe_ts.issuer.tokens_issued == 0

    def test_compliant_predicate_accepted(self):
        policy = SubscriptionPolicy(min_constrained_attributes=2)
        system = make_system(policy)
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "a", "region": "n"}))
        system.run()
        assert len(alice.tokens) == 1

    def test_allowed_attributes_enforced(self):
        policy = SubscriptionPolicy(allowed_attributes=frozenset({"topic"}))
        system = make_system(policy)
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "a", "region": ANY}))  # region=ANY ok
        system.run()
        assert len(alice.tokens) == 1
        system.subscribe(alice, Interest({"region": "n"}))
        with pytest.raises(TokenRequestError):
            system.run()

    def test_token_quota_throttles_accumulation(self):
        """The rate-limit counterpart to the §6.1 accumulation attack."""
        policy = SubscriptionPolicy(max_tokens_per_subject=2)
        system = make_system(policy)
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "a"}))
        system.run()
        system.subscribe(alice, Interest({"topic": "b"}))
        system.run()
        assert len(alice.tokens) == 2
        system.subscribe(alice, Interest({"topic": "c"}))
        with pytest.raises(TokenRequestError):
            system.run()
        assert len(alice.tokens) == 2

    def test_quota_is_per_subject(self):
        policy = SubscriptionPolicy(max_tokens_per_subject=1)
        system = make_system(policy)
        alice = system.add_subscriber("alice", {"org:acme"})
        bob = system.add_subscriber("bob", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "a"}))
        system.subscribe(bob, Interest({"topic": "b"}))
        system.run()
        assert len(alice.tokens) == len(bob.tokens) == 1

    def test_policy_object_direct_checks(self):
        policy = SubscriptionPolicy(
            min_constrained_attributes=1,
            allowed_attributes=frozenset({"topic"}),
            max_tokens_per_subject=5,
        )
        policy.check("sub-x", Interest({"topic": "a"}), issued_so_far=0)
        with pytest.raises(TokenRequestError):
            policy.check("sub-x", Interest({"topic": ANY}), issued_so_far=0)
        with pytest.raises(TokenRequestError):
            policy.check("sub-x", Interest({"topic": "a"}), issued_so_far=5)
