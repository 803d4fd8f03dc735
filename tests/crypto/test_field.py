"""Unit and property tests for F_q / F_q2 arithmetic."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.field import Fq2, fq_inv, fq_is_square, fq_sqrt
from repro.crypto.params import TOY
from repro.errors import ParameterError

Q = TOY.q

elements = st.builds(
    lambda a, b: Fq2(a, b, Q),
    st.integers(min_value=0, max_value=Q - 1),
    st.integers(min_value=0, max_value=Q - 1),
)
nonzero_elements = elements.filter(lambda e: not e.is_zero())


class TestFqHelpers:
    def test_inverse_roundtrip(self):
        for a in (1, 2, 17, Q - 1, 12345678901234567):
            assert (a * fq_inv(a, Q)) % Q == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ValueError):
            fq_inv(0, Q)

    def test_sqrt_of_square(self):
        for a in (2, 3, 9, 1 << 40):
            square = (a * a) % Q
            root = fq_sqrt(square, Q)
            assert (root * root) % Q == square

    def test_sqrt_rejects_non_residue(self):
        # −1 is a non-residue when q ≡ 3 (mod 4)
        assert not fq_is_square(Q - 1, Q)
        with pytest.raises(ParameterError):
            fq_sqrt(Q - 1, Q)

    def test_sqrt_requires_3_mod_4(self):
        with pytest.raises(ParameterError):
            fq_sqrt(4, 13)  # 13 ≡ 1 (mod 4)

    def test_is_square_zero(self):
        assert fq_is_square(0, Q)


class TestFq2Basics:
    def test_one_and_zero(self):
        assert Fq2.one(Q).is_one()
        assert Fq2(0, 0, Q).is_zero()
        assert not Fq2.one(Q).is_zero()

    def test_i_squared_is_minus_one(self):
        i = Fq2(0, 1, Q)
        assert i * i == Fq2(Q - 1, 0, Q)

    def test_square_matches_mul(self):
        e = Fq2(123456789, 987654321, Q)
        assert e.square() == e * e

    def test_pow_small(self):
        e = Fq2(3, 5, Q)
        assert e**0 == Fq2.one(Q)
        assert e**1 == e
        assert e**5 == e * e * e * e * e

    def test_negative_pow_is_inverse_pow(self):
        e = Fq2(3, 5, Q)
        assert e**-3 == (e.inverse()) ** 3

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Fq2(0, 0, Q).inverse()

    def test_bytes_roundtrip(self):
        e = Fq2(42, 4242, Q)
        width = TOY.q_bytes
        data = e.to_bytes(width)
        assert len(data) == 2 * width
        assert Fq2.from_bytes(data, Q) == e

    def test_eq_other_type(self):
        assert Fq2.one(Q) != "one"


class TestFq2Properties:
    @settings(max_examples=50)
    @given(elements, elements, elements)
    def test_mul_associative(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @settings(max_examples=50)
    @given(elements, elements)
    def test_mul_commutative(self, x, y):
        assert x * y == y * x

    @settings(max_examples=50)
    @given(elements, elements, elements)
    def test_distributive(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @settings(max_examples=50)
    @given(nonzero_elements)
    def test_inverse_roundtrip(self, x):
        assert (x * x.inverse()).is_one()

    @settings(max_examples=50)
    @given(elements)
    def test_conjugate_is_frobenius(self, x):
        # In F_{q^2}, the Frobenius map z -> z^q equals conjugation.
        assert x**Q == x.conjugate()

    @settings(max_examples=50)
    @given(elements)
    def test_add_neg_is_zero(self, x):
        assert (x + (-x)).is_zero()
