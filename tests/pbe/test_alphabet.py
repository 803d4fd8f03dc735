"""The one HVE over per-position alphabets.

A position of ``|Σ|`` symbols has one base pair a symbol; binary IP08 is
the all-2 case, byte for byte (``TestBinaryIsIP08``).
"""

import random

import pytest

from repro.crypto.group import PairingGroup
from repro.errors import ParameterError, SchemaError
from repro.pbe import ANY, HVE, AttributeSpec, Interest, MetadataSchema
from repro.pbe.hve import HVEToken
from repro.pbe.serialize import serialize_hve_ciphertext, serialize_hve_token

from ..crypto.golden_util import frozen_nonces
from .reference import ip08_encrypt, ip08_gen_token, ip08_setup

GROUP = PairingGroup("TOY")
SCHEME = HVE(GROUP)
SIZES = [4, 4, 2]
PUBLIC, MASTER = SCHEME.setup(SIZES)
GUID = b"guid-9876543210ff"


class TestMatchSemantics:
    def test_exact_match(self):
        ciphertext = SCHEME.encrypt(PUBLIC, [2, 1, 0], GUID)
        assert SCHEME.query(SCHEME.gen_token(MASTER, [2, 1, 0]), ciphertext) == GUID

    def test_symbol_mismatch(self):
        ciphertext = SCHEME.encrypt(PUBLIC, [2, 1, 0], GUID)
        assert SCHEME.query(SCHEME.gen_token(MASTER, [3, 1, 0]), ciphertext) is None

    def test_wildcards(self):
        ciphertext = SCHEME.encrypt(PUBLIC, [2, 1, 0], GUID)
        assert SCHEME.query(SCHEME.gen_token(MASTER, [None, 1, None]), ciphertext) == GUID
        assert SCHEME.query(SCHEME.gen_token(MASTER, [None, 3, None]), ciphertext) is None

    def test_all_symbol_values_distinct(self):
        for symbol in range(4):
            ciphertext = SCHEME.encrypt(PUBLIC, [symbol, 0, 0], GUID)
            for wanted in range(4):
                token = SCHEME.gen_token(MASTER, [wanted, None, None])
                assert (SCHEME.query(token, ciphertext) == GUID) == (wanted == symbol)

    def test_collusion_resistance(self):
        ciphertext = SCHEME.encrypt(PUBLIC, [2, 1, 0], GUID)
        token_a = SCHEME.gen_token(MASTER, [2, None, None])
        token_b = SCHEME.gen_token(MASTER, [None, 1, None])
        merged = HVEToken(
            n=3,
            positions=token_a.positions + token_b.positions,
            components=token_a.components + token_b.components,
        )
        assert SCHEME.query(merged, ciphertext) is None


class TestValidation:
    def test_bad_alphabet(self):
        for alphabet in ([4, 1], [], 0):
            with pytest.raises(ParameterError):
                SCHEME.setup(alphabet)

    def test_symbol_out_of_range(self):
        for x in ([4, 0, 0], [0, 0, 2], [-1, 0, 0], [None, 0, 0]):
            with pytest.raises(ParameterError):
                SCHEME.encrypt(PUBLIC, x, GUID)

    def test_vector_length_mismatch(self):
        with pytest.raises(ParameterError):
            SCHEME.encrypt(PUBLIC, [0, 0], GUID)
        with pytest.raises(ParameterError):
            SCHEME.gen_token(MASTER, [0, 0])

    def test_all_wildcard_rejected(self):
        with pytest.raises(ParameterError):
            SCHEME.gen_token(MASTER, [None, None, None])

    def test_token_symbol_out_of_alphabet(self):
        with pytest.raises(ParameterError):
            SCHEME.gen_token(MASTER, [9, None, None])


class TestSchemaIntegration:
    def setup_method(self):
        attributes = [
            AttributeSpec("topic", ("m&a", "earnings", "litigation", "markets")),
            AttributeSpec("region", ("us", "eu", "apac", "latam")),
            AttributeSpec("priority", ("low", "high")),
        ]
        self.schema = MetadataSchema(attributes)
        self.bit_schema = MetadataSchema(attributes, "bit")
        assert self.schema.alphabet_sizes == (4, 4, 2)
        self.public, self.master = SCHEME.setup(self.schema.alphabet_sizes)

    def test_metadata_and_interest_pipeline(self):
        x = self.schema.encode_metadata({"topic": "m&a", "region": "us", "priority": "high"})
        ciphertext = SCHEME.encrypt(self.public, x, GUID)
        matching = SCHEME.gen_token(
            self.master, self.schema.encode_interest(Interest({"topic": "m&a", "region": ANY}))
        )
        rival = SCHEME.gen_token(
            self.master, self.schema.encode_interest(Interest({"topic": "earnings"}))
        )
        assert SCHEME.query(matching, ciphertext) == GUID
        assert SCHEME.query(rival, ciphertext) is None

    def test_missing_metadata_attribute(self):
        with pytest.raises(SchemaError):
            self.schema.encode_metadata({"topic": "m&a"})

    def test_agrees_with_binary_scheme(self):
        """Both encodings implement the same predicate."""
        bit_public, bit_master = SCHEME.setup(self.bit_schema.alphabet_sizes)
        metadata = {"topic": "litigation", "region": "eu", "priority": "low"}
        interests = [
            Interest({"topic": "litigation"}),
            Interest({"topic": "m&a"}),
            Interest({"region": "eu", "priority": "low"}),
            Interest({"region": "eu", "priority": "high"}),
        ]
        symbol_ct = SCHEME.encrypt(self.public, self.schema.encode_metadata(metadata), GUID)
        bit_ct = SCHEME.encrypt(bit_public, self.bit_schema.encode_metadata(metadata), GUID)
        for interest in interests:
            symbol_hit = SCHEME.query(
                SCHEME.gen_token(self.master, self.schema.encode_interest(interest)), symbol_ct
            )
            bit_hit = SCHEME.query(
                SCHEME.gen_token(bit_master, self.bit_schema.encode_interest(interest)), bit_ct
            )
            assert (symbol_hit == GUID) == (bit_hit == GUID) == interest.matches(metadata)

    def test_fewer_pairings_than_binary(self):
        """The whole point: one position per attribute."""
        interest = Interest({"topic": "m&a", "region": "us"})
        _, bit_master = SCHEME.setup(self.bit_schema.alphabet_sizes)
        symbol_token = SCHEME.gen_token(self.master, self.schema.encode_interest(interest))
        bit_token = SCHEME.gen_token(bit_master, self.bit_schema.encode_interest(interest))
        assert len(symbol_token.positions) == 2  # vs 4 bit positions
        assert len(bit_token.positions) == 4


class TestBinaryIsIP08:
    """An all-2 key, ciphertext and token from a seeded rng are the
    textbook IP08's (``tests/pbe/reference.py``), byte for byte."""

    N = 6
    X = [1, 0, 0, 1, 1, 0]
    Y = [1, None, 0, None, 1, None]

    def _run(self, setup, encrypt, gen_token):
        group = PairingGroup("TOY", rng=random.Random(33))
        with frozen_nonces():
            public, master = setup(group, self.N)
            ciphertext = encrypt(group, public, self.X, GUID)
            token = gen_token(group, master, self.Y)
        return public, serialize_hve_ciphertext(group, ciphertext), serialize_hve_token(group, token)

    def test_key_ciphertext_and_token_bytes(self):
        public, ciphertext, token = self._run(
            lambda group, n: HVE(group).setup(n),
            lambda group, public, x, payload: HVE(group).encrypt(public, x, payload),
            lambda group, master, y: HVE(group).gen_token(master, y),
        )
        reference, ip08_ciphertext, ip08_token = self._run(ip08_setup, ip08_encrypt, ip08_gen_token)
        y_gt, t, v, r, m = reference
        assert public.alphabet == (2,) * self.N and public.y_gt == y_gt
        assert [row[1] for row in public.t] == list(t) and [row[1] for row in public.v] == list(v)
        assert [row[0] for row in public.t] == list(r) and [row[0] for row in public.v] == list(m)
        assert ciphertext == ip08_ciphertext
        assert token == ip08_token
