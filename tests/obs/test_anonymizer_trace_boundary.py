"""The anonymizer as a trace boundary (ROADMAP item 3's first deliverable).

A fetch relayed through the anonymizer must not carry the trace of the
publication it fetches, nor a token request the trace of the subscriber
asking for it; today both do, so these pins are expected to fail.
"""

import pytest

from repro.core import P3SConfig, P3SSystem
from repro.obs import Observability
from repro.pbe import AttributeSpec, Interest, MetadataSchema

SCHEMA = MetadataSchema([AttributeSpec("topic", ("a", "b"))])


@pytest.fixture()
def spans():
    obs = Observability()
    try:
        system = P3SSystem(P3SConfig(schema=SCHEMA, obs=obs))
        subscriber = system.add_subscriber("alice", {"org"})
        system.subscribe(subscriber, Interest({"topic": "a"}))
        system.run()
        publisher = system.add_publisher("pub")
        system.run()
        publisher.publish({"topic": "a"}, b"payload", policy="org")
        system.run()
        yield list(obs.tracer.spans)
    finally:
        obs.uninstall()


def one(spans, name, component=None):
    (span,) = [s for s in spans if s.name == name and component in (None, s.component)]
    return span


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: the anonymizer forwards the publication's trace to the RS",
)
def test_a_retrieval_does_not_carry_the_publication_trace(spans):
    assert one(spans, "rs.retrieve").trace_id != one(spans, "publish").trace_id


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: the anonymizer forwards the subscriber's trace to the PBE-TS",
)
def test_a_token_request_does_not_carry_the_subscriber_trace(spans):
    assert (
        one(spans, "pbe_ts.token_request").trace_id
        != one(spans, "subscribe", "alice").trace_id
    )
