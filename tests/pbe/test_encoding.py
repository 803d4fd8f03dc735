"""Bit-encoding helpers for the binary HVE alphabet."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchemaError
from repro.pbe.encoding import bits_needed, encode_value, wildcard_bits


def _as_int(bits: list[int]) -> int:
    """The index a big-endian bit list spells."""
    return int("".join(str(bit) for bit in bits), 2)


class TestBitsNeeded:
    @pytest.mark.parametrize(
        "domain,expected",
        [(2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (16, 4), (256, 8)],
    )
    def test_widths(self, domain, expected):
        assert bits_needed(domain) == expected

    def test_paper_mapping(self):
        # paper §3.1: N attributes × 8 values → 3 bits per attribute
        assert bits_needed(8) == 3

    def test_tiny_domain_rejected(self):
        with pytest.raises(SchemaError):
            bits_needed(1)


class TestEncodeDecode:
    def test_all_values_distinct(self):
        encodings = [tuple(encode_value(i, 8)) for i in range(8)]
        assert len(set(encodings)) == 8

    def test_roundtrip_exhaustive(self):
        for domain in (2, 3, 5, 8, 11):
            for index in range(domain):
                bits = encode_value(index, domain)
                assert len(bits) == bits_needed(domain) and _as_int(bits) == index

    def test_big_endian(self):
        assert encode_value(4, 8) == [1, 0, 0]
        assert encode_value(1, 8) == [0, 0, 1]

    def test_out_of_range_rejected(self):
        with pytest.raises(SchemaError):
            encode_value(8, 8)
        with pytest.raises(SchemaError):
            encode_value(-1, 8)

    @settings(max_examples=50)
    @given(st.integers(min_value=2, max_value=64), st.data())
    def test_roundtrip_property(self, domain, data):
        index = data.draw(st.integers(min_value=0, max_value=domain - 1))
        assert _as_int(encode_value(index, domain)) == index


class TestWildcard:
    def test_spans_attribute_width(self):
        assert wildcard_bits(8) == [None, None, None]
        assert wildcard_bits(2) == [None]
