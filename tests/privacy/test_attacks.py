"""Executable attacks against the real HVE scheme, and the mitigation."""

import pytest

from repro.crypto.group import PairingGroup
from repro.errors import SchemaError
from repro.pbe import ANY, ENCODINGS, HVE, AttributeSpec, Interest, MetadataSchema
from repro.privacy.analysis import (
    epoch_of,
    token_accumulation_attack,
    token_probing_attack,
    with_epoch_attribute,
)

GROUP = PairingGroup("TOY")


@pytest.fixture(scope="module")
def setting():
    schema = MetadataSchema(
        [
            AttributeSpec("topic", ("a", "b", "c", "d")),
            AttributeSpec("prio", ("lo", "hi")),
        ]
    )
    hve = HVE(GROUP)
    public, master = hve.setup(schema.alphabet_sizes)
    return schema, hve, public, master


class TestTokenProbing:
    """Paper §6.1: tokens have no token security — encrypt capability +
    token reveals the interest vector."""

    def test_recovers_exact_interest(self, setting):
        schema, hve, public, master = setting
        interest = Interest({"topic": "c", "prio": ANY})
        token = hve.gen_token(master, schema.encode_interest(interest))
        recovered = token_probing_attack(hve, public, token, schema)
        assert recovered.constraints == {"topic": "c", "prio": ANY}

    def test_recovers_fully_constrained_interest(self, setting):
        schema, hve, public, master = setting
        interest = Interest({"topic": "a", "prio": "lo"})
        token = hve.gen_token(master, schema.encode_interest(interest))
        recovered = token_probing_attack(hve, public, token, schema)
        assert recovered.constraints == {"topic": "a", "prio": "lo"}

    def test_foreign_token_detected(self, setting):
        schema, hve, public, master = setting
        _, other_master = hve.setup(schema.alphabet_sizes)
        token = hve.gen_token(other_master, schema.encode_interest(Interest({"topic": "a"})))
        with pytest.raises(SchemaError):
            token_probing_attack(hve, public, token, schema)


class TestTokenAccumulation:
    """Paper §6.1: a subscriber accumulating tokens over the interest space
    can reveal the attribute vector of any ciphertext."""

    def test_recovers_metadata(self, setting):
        schema, hve, public, master = setting
        accumulated = {
            (spec.name, value): hve.gen_token(
                master, schema.encode_interest(Interest({spec.name: value}))
            )
            for spec in schema.attributes
            for value in spec.values
        }
        metadata = {"topic": "b", "prio": "hi"}
        ciphertext = hve.encrypt(public, schema.encode_metadata(metadata), b"guid")
        assert token_accumulation_attack(hve, accumulated, ciphertext, schema) == metadata

    def test_partial_accumulation_partial_recovery(self, setting):
        schema, hve, public, master = setting
        # tokens only for the topic attribute
        accumulated = {
            ("topic", value): hve.gen_token(
                master, schema.encode_interest(Interest({"topic": value}))
            )
            for value in schema.attribute("topic").values
        }
        ciphertext = hve.encrypt(
            public, schema.encode_metadata({"topic": "d", "prio": "lo"}), b"guid"
        )
        recovered = token_accumulation_attack(hve, accumulated, ciphertext, schema)
        assert recovered == {"topic": "d"}  # prio stays hidden


class TestTimestampedTokenMitigation:
    """The paper's mitigation: epoch attribute ⇒ tokens expire."""

    def test_epoch_schema_shape(self, setting):
        schema, *_ = setting
        extended = with_epoch_attribute(schema, num_epochs=4)
        assert extended.vector_length == schema.vector_length + 1  # one symbol position
        assert extended.attribute("epoch").values == ("e0", "e1", "e2", "e3")
        bits = MetadataSchema(schema.attributes, "bit")
        assert with_epoch_attribute(bits, num_epochs=4).vector_length == bits.vector_length + 2

    def test_token_stops_matching_after_rotation(self, setting):
        schema, hve, _, _ = setting
        extended = with_epoch_attribute(schema, num_epochs=4)
        public, master = hve.setup(extended.alphabet_sizes)
        # token pinned to epoch e0
        token = hve.gen_token(
            master, extended.encode_interest(Interest({"topic": "a", "epoch": "e0"}))
        )
        item = {"topic": "a", "prio": "lo"}
        ct_epoch0 = hve.encrypt(
            public, extended.encode_metadata({**item, "epoch": "e0"}), b"guid"
        )
        ct_epoch1 = hve.encrypt(
            public, extended.encode_metadata({**item, "epoch": "e1"}), b"guid"
        )
        assert hve.query(token, ct_epoch0) == b"guid"
        assert hve.query(token, ct_epoch1) is None  # revoked by rotation

    def test_epoch_of(self):
        assert epoch_of(0.0, 10.0, 4) == "e0"
        assert epoch_of(9.99, 10.0, 4) == "e0"
        assert epoch_of(10.0, 10.0, 4) == "e1"
        assert epoch_of(45.0, 10.0, 4) == "e0"  # wraps mod num_epochs

    def test_num_epochs_validated(self):
        schema = MetadataSchema([AttributeSpec("a", ("x", "y"))])
        with pytest.raises(SchemaError):
            with_epoch_attribute(schema, num_epochs=1)

    def test_probing_attack_cost_grows_with_epochs(self, setting):
        """The mitigation also multiplies the probing search space."""
        schema, *_ = setting
        base_space = 1
        for spec in schema.attributes:
            base_space *= len(spec.values)
        extended = with_epoch_attribute(schema, num_epochs=16)
        extended_space = 1
        for spec in extended.attributes:
            extended_space *= len(spec.values)
        assert extended_space == base_space * 16


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_no_token_security_under_either_encoding(encoding):
    """The §6.1 caveat does not depend on the alphabet: a token plus encrypt
    capability gives up the interest whether a position is a bit or a whole
    attribute."""
    schema = MetadataSchema(
        [AttributeSpec("topic", ("a", "b", "c", "d")), AttributeSpec("prio", ("lo", "hi"))],
        encoding,
    )
    hve = HVE(GROUP)
    public, master = hve.setup(schema.alphabet_sizes)
    token = hve.gen_token(master, schema.encode_interest(Interest({"topic": "c"})))
    assert token_probing_attack(hve, public, token, schema).constraints == {"topic": "c", "prio": ANY}
