"""Metadata schema and interest predicate tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchemaError
from repro.pbe.schema import ANY, AttributeSpec, Interest, MetadataSchema

ATTRIBUTES = [
    AttributeSpec("topic", ("m&a", "earnings", "litigation", "markets")),
    AttributeSpec("region", ("us", "eu", "apac", "latam")),
    AttributeSpec("priority", ("low", "high")),
]


def make_schema(encoding="bit"):
    return MetadataSchema(ATTRIBUTES, encoding)


class TestAttributeSpec:
    def test_bits(self):
        assert AttributeSpec("a", ("x", "y")).bits == 1
        assert AttributeSpec("a", tuple("abcdefgh")).bits == 3

    def test_index_of(self):
        spec = AttributeSpec("a", ("x", "y", "z"))
        assert spec.index_of("y") == 1

    def test_unknown_value(self):
        with pytest.raises(SchemaError):
            AttributeSpec("a", ("x", "y")).index_of("q")

    def test_too_few_values(self):
        with pytest.raises(SchemaError):
            AttributeSpec("a", ("only",))

    def test_duplicate_values(self):
        with pytest.raises(SchemaError):
            AttributeSpec("a", ("x", "x"))


class TestMetadataSchema:
    """The bit encoding, position by position."""

    def setup_method(self):
        self.schema = make_schema()

    def test_vector_length(self):
        assert self.schema.vector_length == 2 + 2 + 1

    def test_paper_shape_3n_bits(self):
        # N attributes with 8 values each → 3N bits (paper §3.1)
        schema = MetadataSchema(
            [AttributeSpec(f"a{i}", tuple(f"v{j}" for j in range(8))) for i in range(5)], "bit"
        )
        assert schema.vector_length == 15
        assert schema.alphabet_sizes == (2,) * 15

    def test_encode_metadata(self):
        bits = self.schema.encode_metadata(
            {"topic": "m&a", "region": "latam", "priority": "high"}
        )
        assert bits == [0, 0, 1, 1, 1]

    def test_encode_metadata_requires_all_attributes(self):
        with pytest.raises(SchemaError):
            self.schema.encode_metadata({"topic": "m&a"})

    def test_encode_metadata_rejects_unknown(self):
        with pytest.raises(SchemaError):
            self.schema.encode_metadata(
                {"topic": "m&a", "region": "us", "priority": "low", "bogus": "x"}
            )

    def test_encode_interest_with_wildcards(self):
        bits = self.schema.encode_interest(Interest({"region": "eu"}))
        assert bits == [None, None, 0, 1, None]

    def test_encode_interest_full(self):
        bits = self.schema.encode_interest(
            Interest({"topic": "markets", "region": "us", "priority": "low"})
        )
        assert bits == [1, 1, 0, 0, 0]

    def test_encode_interest_rejects_all_wildcard(self):
        with pytest.raises(SchemaError):
            self.schema.encode_interest(Interest({}))
        with pytest.raises(SchemaError):
            self.schema.encode_interest(Interest({"topic": ANY}))

    def test_encode_interest_rejects_unknown_attribute(self):
        with pytest.raises(SchemaError):
            self.schema.encode_interest(Interest({"bogus": "x"}))

    def test_duplicate_names_rejected(self):
        spec = AttributeSpec("a", ("x", "y"))
        with pytest.raises(SchemaError):
            MetadataSchema([spec, spec])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            MetadataSchema([])

class TestSymbolEncoding:
    """The default: one position per attribute, its domain the alphabet."""

    def setup_method(self):
        self.schema = MetadataSchema(ATTRIBUTES)

    def test_is_the_default_and_one_position_an_attribute(self):
        assert self.schema.encoding == "symbol"
        assert self.schema.alphabet_sizes == (4, 4, 2)
        assert self.schema.vector_length == 3
        assert make_schema("bit").vector_length == 5

    def test_encode_metadata_is_value_indices(self):
        metadata = {"topic": "litigation", "region": "latam", "priority": "high"}
        assert self.schema.encode_metadata(metadata) == [2, 3, 1]

    def test_encode_interest_wildcards_whole_attributes(self):
        assert self.schema.encode_interest(Interest({"region": "eu"})) == [None, 1, None]
        with pytest.raises(SchemaError):
            self.schema.encode_interest(Interest({"region": "mars"}))

    def test_unknown_encoding_rejected(self):
        with pytest.raises(SchemaError):
            MetadataSchema(ATTRIBUTES, "trit")


class TestInterestSemantics:
    def setup_method(self):
        self.schema = make_schema()
        self.metadata = {"topic": "m&a", "region": "us", "priority": "high"}

    def test_exact_match(self):
        assert Interest({"topic": "m&a", "region": "us"}).matches(self.metadata)

    def test_wildcard_match(self):
        assert Interest({"topic": "m&a", "region": ANY}).matches(self.metadata)

    def test_mismatch(self):
        assert not Interest({"topic": "earnings"}).matches(self.metadata)

    def test_describe(self):
        text = Interest({"topic": "m&a", "region": ANY}).describe()
        assert "topic=m&a" in text
        assert "region=*" in text
        assert Interest({}).describe() == "<match-all>"

    @settings(max_examples=40)
    @given(
        st.sampled_from(["m&a", "earnings", "litigation", "markets"]),
        st.sampled_from(["us", "eu", "apac", "latam"]),
        st.sampled_from(["low", "high"]),
        st.sampled_from(["m&a", "earnings", "litigation", "markets"]),
    )
    def test_plaintext_matching_agrees_with_encoding(self, topic, region, priority, wanted):
        """Interest.matches and the bit-vector match predicate must agree."""
        metadata = {"topic": topic, "region": region, "priority": priority}
        interest = Interest({"topic": wanted, "region": ANY})
        x = self.schema.encode_metadata(metadata)
        y = self.schema.encode_interest(interest)
        vector_match = all(y_i is None or y_i == x_i for x_i, y_i in zip(x, y))
        assert vector_match == interest.matches(metadata)
