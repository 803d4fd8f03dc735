"""IP08 HVE: match semantics, wildcards, collusion, serialization."""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.curve import Point
from repro.crypto.group import PairingGroup
from repro.crypto.symmetric import OVERHEAD
from repro.errors import ParameterError, SerializationError
from repro.pbe.hve import HVE, HVEToken
from repro.pbe.serialize import (
    deserialize_hve_ciphertext,
    deserialize_hve_token,
    serialize_hve_ciphertext,
    serialize_hve_token,
)

GROUP = PairingGroup("TOY")
SCHEME = HVE(GROUP)
N = 6
PUBLIC, MASTER = SCHEME.setup(N)
GUID = b"guid-0123456789abcdef"


def encrypt(bits):
    return SCHEME.encrypt(PUBLIC, list(bits), GUID)


def token(bits):
    return SCHEME.gen_token(MASTER, list(bits))


class TestMatchSemantics:
    def test_exact_match(self):
        ct = encrypt([1, 0, 1, 1, 0, 0])
        assert SCHEME.query(token([1, 0, 1, 1, 0, 0]), ct) == GUID

    def test_single_bit_mismatch(self):
        ct = encrypt([1, 0, 1, 1, 0, 0])
        assert SCHEME.query(token([1, 0, 1, 1, 0, 1]), ct) is None

    def test_wildcards_span_positions(self):
        ct = encrypt([1, 0, 1, 1, 0, 0])
        assert SCHEME.query(token([1, None, None, 1, None, None]), ct) == GUID

    def test_wildcard_and_mismatch(self):
        ct = encrypt([1, 0, 1, 1, 0, 0])
        assert SCHEME.query(token([0, None, None, 1, None, None]), ct) is None

    def test_single_position_token(self):
        ct = encrypt([1, 0, 1, 1, 0, 0])
        assert SCHEME.query(token([None, None, None, None, None, 0]), ct) == GUID
        assert SCHEME.query(token([None, None, None, None, None, 1]), ct) is None

    def test_matches_alias(self):
        ct = encrypt([0, 0, 0, 0, 0, 0])
        assert SCHEME.matches(token([0, 0, None, None, None, None]), ct)
        assert not SCHEME.matches(token([1, None, None, None, None, None]), ct)

    def test_all_zero_vector(self):
        ct = encrypt([0] * N)
        assert SCHEME.query(token([0] * N), ct) == GUID

    def test_payload_integrity(self):
        ct = encrypt([1] * N)
        assert SCHEME.query(token([1] * N), ct) == GUID

    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=1), min_size=N, max_size=N),
        st.lists(st.sampled_from([0, 1, None]), min_size=N, max_size=N),
    )
    def test_query_iff_match(self, x, y):
        if all(value is None for value in y):
            return
        ct = encrypt(x)
        tok = token(y)
        expected = all(y_i is None or y_i == x_i for x_i, y_i in zip(x, y))
        assert (SCHEME.query(tok, ct) == GUID) == expected


class TestValidation:
    def test_bad_vector_length(self):
        with pytest.raises(ParameterError):
            SCHEME.encrypt(PUBLIC, [1, 0], GUID)

    def test_bad_bit_value(self):
        with pytest.raises(ParameterError):
            SCHEME.encrypt(PUBLIC, [2] * N, GUID)

    def test_bad_interest_length(self):
        with pytest.raises(ParameterError):
            SCHEME.gen_token(MASTER, [1, None])

    def test_all_wildcard_rejected(self):
        with pytest.raises(ParameterError):
            SCHEME.gen_token(MASTER, [None] * N)

    def test_bad_interest_value(self):
        with pytest.raises(ParameterError):
            SCHEME.gen_token(MASTER, [7] + [None] * (N - 1))

    def test_setup_rejects_zero_length(self):
        with pytest.raises(ParameterError):
            SCHEME.setup(0)

    def test_token_ciphertext_length_mismatch(self):
        other_public, other_master = SCHEME.setup(3)
        ct = SCHEME.encrypt(other_public, [1, 0, 1], GUID)
        with pytest.raises(ParameterError):
            SCHEME.query(token([1] + [None] * (N - 1)), ct)


class TestIsolationAndCollusion:
    def test_fresh_setup_tokens_useless(self):
        ct = encrypt([1, 0, 1, 1, 0, 0])
        _, other_master = SCHEME.setup(N)
        foreign = SCHEME.gen_token(other_master, [1, 0, 1, 1, 0, 0])
        assert SCHEME.query(foreign, ct) is None

    def test_combined_token_halves_fail(self):
        """Mixing components of two matching tokens must not match.

        Each token shares y₀ afresh, so components from different tokens
        never sum back to y₀.
        """
        ct = encrypt([1, 0, 1, 1, 0, 0])
        token_a = token([1, 0, None, None, None, None])
        token_b = token([None, None, 1, 1, None, None])
        frankenstein = HVEToken(
            n=N,
            positions=token_a.positions + token_b.positions,
            components=token_a.components + token_b.components,
        )
        assert SCHEME.query(frankenstein, ct) is None

    def test_subset_of_token_positions_fails(self):
        """Dropping positions from a token breaks the additive sharing."""
        full = token([1, 0, 1, None, None, None])
        truncated = HVEToken(n=N, positions=full.positions[:2], components=full.components[:2])
        ct = encrypt([1, 0, 1, 1, 0, 0])
        assert SCHEME.query(truncated, ct) is None

    def test_one_position_token_is_deterministic(self):
        """A one-position token's single share is y₀ itself, so equal
        one-attribute interests give byte-equal tokens (docs/PROTOCOL.md:
        under delegated matching the DS sees that equality); with two
        positions the sharing is fresh each time."""
        one = [None, 1, None, None, None, None]
        two = [None, 1, 0, None, None, None]
        assert serialize_hve_token(GROUP, token(one)) == serialize_hve_token(GROUP, token(one))
        assert serialize_hve_token(GROUP, token(two)) != serialize_hve_token(GROUP, token(two))

    def test_two_mismatched_tokens_stay_mismatched(self):
        ct = encrypt([1, 1, 1, 1, 1, 1])
        assert SCHEME.query(token([0, None, None, None, None, None]), ct) is None
        assert SCHEME.query(token([None, 0, None, None, None, None]), ct) is None


class TestTokenLines:
    def test_a_token_keeps_its_lines_and_a_copy_starts_without(self):
        held = token([1, 0, None, None, None, None])
        assert held.lines is None
        assert SCHEME.query(held, encrypt([1, 0, 1, 1, 0, 0])) == GUID
        lines = held.lines
        assert len(lines) == 2  # one (Y_i, L_i) pair a position
        assert SCHEME.query(held, encrypt([1, 0, 0, 0, 0, 0])) == GUID
        assert held.lines is lines  # built once, kept by the token
        for copy in (pickle.loads(pickle.dumps(held)), dataclasses.replace(held)):
            assert copy == held and hash(copy) == hash(held)
            assert copy.lines is None


class TestHVESerialization:
    def test_ciphertext_roundtrip(self):
        ct = encrypt([1, 0, 1, 1, 0, 0])
        blob = serialize_hve_ciphertext(GROUP, ct)
        restored = deserialize_hve_ciphertext(GROUP, blob, N)
        assert serialize_hve_ciphertext(GROUP, restored) == blob
        assert SCHEME.query(token([1, 0, None, None, None, None]), restored) == GUID

    def test_token_roundtrip(self):
        tok = token([1, 0, None, None, None, 1])
        blob = serialize_hve_token(GROUP, tok)
        restored = deserialize_hve_token(GROUP, blob)
        assert serialize_hve_token(GROUP, restored) == blob
        ct = encrypt([1, 0, 1, 1, 0, 1])
        assert SCHEME.query(restored, ct) == GUID

    def test_truncated_ciphertext_rejected(self):
        blob = serialize_hve_ciphertext(GROUP, encrypt([1] * N))
        with pytest.raises(SerializationError):
            deserialize_hve_ciphertext(GROUP, blob[:-1], N)

    def test_unknown_flags_rejected(self):
        """The leading byte is 0, the one encoding; any other is refused."""
        blob = bytearray(serialize_hve_ciphertext(GROUP, encrypt([1, 1, 0, 0, 1, 1])))
        assert blob[0] == 0
        for flags in (0x01, 0x7F):
            blob[0] = flags
            with pytest.raises(SerializationError):
                deserialize_hve_ciphertext(GROUP, bytes(blob), N)

    def test_truncated_token_rejected(self):
        blob = serialize_hve_token(GROUP, token([1] + [None] * (N - 1)))
        with pytest.raises(SerializationError):
            deserialize_hve_token(GROUP, blob[:-1])

    def test_two_torsion_component_decodes_and_matches_nothing(self):
        """``(0, 0)`` is on the curve but outside G1 and has no ``1/y``: a
        ciphertext carrying it is simply no match, for every component."""
        bits = [1, 0, 1, 1, 0, 0]
        ct = encrypt(bits)
        two_torsion = Point(0, 0, GROUP.params)
        for field in ("x_components", "w_components"):
            for i in (0, N - 1):
                components = list(getattr(ct, field))
                components[i] = two_torsion
                hostile = dataclasses.replace(ct, **{field: tuple(components)})
                decoded = deserialize_hve_ciphertext(
                    GROUP, serialize_hve_ciphertext(GROUP, hostile), N
                )
                assert getattr(decoded, field)[i] == two_torsion
                assert SCHEME.query(token(bits), decoded) is None
        assert SCHEME.query(token(bits), ct) == GUID

    def test_size_formulas_track_n(self):
        """docs/PROTOCOL.md's layout: a 9-byte header, 2n points, and the
        sealed payload (the GUID plus the box's overhead)."""
        for n in (1, 4, 16):
            public, master = SCHEME.setup(n)
            ct = SCHEME.encrypt(public, [0] * n, GUID)
            size = 9 + 2 * n * GROUP.g1_bytes + len(GUID) + OVERHEAD
            assert len(serialize_hve_ciphertext(GROUP, ct)) == size
