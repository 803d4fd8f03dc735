"""Schema → HVE integration: the full PBE pipeline P3S uses."""

import pytest

from repro.crypto.group import PairingGroup
from repro.pbe import ANY, HVE, AttributeSpec, Interest, MetadataSchema

GROUP = PairingGroup("TOY")


@pytest.fixture(scope="module")
def pipeline():
    schema = MetadataSchema(
        [
            AttributeSpec("topic", ("m&a", "earnings", "litigation", "markets")),
            AttributeSpec("company", ("lehman", "acme", "globex", "initech")),
            AttributeSpec("urgency", ("routine", "flash")),
        ]
    )
    hve = HVE(GROUP)
    public, master = hve.setup(schema.alphabet_sizes)
    return schema, hve, public, master


def publish(pipeline, metadata, guid=b"guid-1234"):
    schema, hve, public, _ = pipeline
    return hve.encrypt(public, schema.encode_metadata(metadata), guid)


def subscribe(pipeline, constraints):
    schema, hve, _, master = pipeline
    return hve.gen_token(master, schema.encode_interest(Interest(constraints)))


class TestPipeline:
    def test_topic_subscription_matches(self, pipeline):
        _, hve, _, _ = pipeline
        ct = publish(pipeline, {"topic": "m&a", "company": "lehman", "urgency": "flash"})
        tok = subscribe(pipeline, {"topic": "m&a"})
        assert hve.query(tok, ct) == b"guid-1234"

    def test_company_specific_interest(self, pipeline):
        _, hve, _, _ = pipeline
        ct = publish(pipeline, {"topic": "earnings", "company": "lehman", "urgency": "routine"})
        lehman_watcher = subscribe(pipeline, {"company": "lehman"})
        acme_watcher = subscribe(pipeline, {"company": "acme"})
        assert hve.query(lehman_watcher, ct) == b"guid-1234"
        assert hve.query(acme_watcher, ct) is None

    def test_conjunctive_interest(self, pipeline):
        _, hve, _, _ = pipeline
        ct = publish(pipeline, {"topic": "m&a", "company": "acme", "urgency": "flash"})
        tok = subscribe(pipeline, {"topic": "m&a", "urgency": "flash", "company": ANY})
        assert hve.query(tok, ct) == b"guid-1234"
        tok2 = subscribe(pipeline, {"topic": "m&a", "urgency": "routine"})
        assert hve.query(tok2, ct) is None

    def test_exhaustive_value_sweep(self, pipeline):
        """Every (published value, subscribed value) combination behaves."""
        schema, hve, _, _ = pipeline
        topics = next(spec for spec in schema.attributes if spec.name == "topic").values
        for published in topics:
            ct = publish(
                pipeline, {"topic": published, "company": "acme", "urgency": "routine"}
            )
            for wanted in topics:
                tok = subscribe(pipeline, {"topic": wanted})
                assert (hve.query(tok, ct) is not None) == (published == wanted)

    def test_distinct_guids_recovered(self, pipeline):
        _, hve, _, _ = pipeline
        tok = subscribe(pipeline, {"urgency": "flash"})
        for i in range(3):
            guid = f"guid-{i:04d}".encode()
            ct = publish(
                pipeline,
                {"topic": "markets", "company": "globex", "urgency": "flash"},
                guid=guid,
            )
            assert hve.query(tok, ct) == guid
