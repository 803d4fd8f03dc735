"""Unit and property tests for F_q / F_q2 arithmetic, and the GT comb."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto import precompute
from repro.crypto.comb import ROW, WINDOW, shared_tables, signed_digits
from repro.crypto.curve import Point
from repro.crypto.field import Fq2, PowerTable, fq_inv, fq_is_square, fq_sqrt, lucas_ladder
from repro.crypto.group import PairingGroup
from repro.crypto.pairing import tate_pairing
from repro.crypto.params import TOY
from repro.errors import ParameterError

from .reference import plain_pow

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
        group = PairingGroup("TOY")
        data = group.serialize_gt(e)
        assert data == (42).to_bytes(width, "big") + (4242).to_bytes(width, "big")
        assert group.deserialize_gt(data) == e

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


# -- the GT comb: a signed radix-32 table of an element of norm 1 ---------------------

GT = tate_pairing(Point.generator(TOY), Point.generator(TOY))
UNITARY = Fq2(3, -4, Q) * Fq2(3, 4, Q).inverse()  # norm 1, outside the order-r subgroup
NOT_UNITARY = Fq2(3, 5, Q)  # norm 34

# digit strings: every 5-bit window chosen, so all-carry runs (every digit
# above 16) and carries off the top occur, beside the edges of both ranges
digit_strings = st.lists(st.integers(0, (1 << WINDOW) - 1), min_size=1, max_size=40).map(
    lambda digits: sum(d << (WINDOW * j) for j, d in enumerate(digits))
)
edges = st.sampled_from([0, 1, 2, 16, 17, 31, 32, TOY.r - 1, TOY.r, TOY.r + 1, Q, Q + 1, Q + 2])
exponents = (
    st.integers(0, TOY.r - 1)
    | digit_strings
    | edges
    | st.integers(1, 40).map(lambda m: (1 << (WINDOW * m)) - 1)  # every digit −1, then a carry
    | st.integers(-(1 << 200), -1)
)


@pytest.mark.usefixtures("clean_tables")
class TestGtComb:
    @settings(max_examples=200)
    @given(st.integers(0, 1 << 300) | edges)
    def test_signed_digits_recode_every_scalar(self, k):
        digits = signed_digits(k)
        assert sum(d << (WINDOW * j) for j, d in enumerate(digits)) == k
        assert all(1 - ROW <= d <= ROW for d in digits) and (not digits or digits[-1])
        assert len(digits) <= k.bit_length() // WINDOW + 1

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([GT, GT**12345, UNITARY]), exponents)
    @example(GT, (1 << (WINDOW * 13)) - 1)
    def test_comb_equals_square_and_multiply(self, base, k):
        shared_tables.table(base)  # the comb, whatever the exponent's width
        assert base**k == plain_pow(base, k)
        assert PowerTable(base).pow(abs(k)) == plain_pow(base, abs(k))

    def test_a_base_not_of_norm_1_never_gets_a_table(self):
        for k in (TOY.r - 1, TOY.r - 2, TOY.r - 3, TOY.r - 4):
            assert NOT_UNITARY**k == plain_pow(NOT_UNITARY, k)
        assert NOT_UNITARY not in shared_tables.tables and NOT_UNITARY not in shared_tables.counts
        with pytest.raises(ValueError):
            shared_tables.table(NOT_UNITARY)
        assert not shared_tables.tables

    def test_promotion_on_the_third_large_use(self):
        base = GT**777
        for k in (5, 1 << 31, (1 << 32) - 1):  # ≤ 32 bits: not counted
            assert base**k == plain_pow(base, k)
        assert base not in shared_tables.counts
        for use, k in enumerate((1 << 32, TOY.r - 1, TOY.r - 2), start=1):
            assert base**k == plain_pow(base, k)
            assert (base in shared_tables.tables) == (use == 3)
        rows = shared_tables.tables[base].rows
        assert len(rows) == TOY.r.bit_length() // WINDOW + 1 and all(len(row) == ROW for row in rows)

    def test_clear_caches_drops_gt_tables(self):
        shared_tables.table(GT)
        GT ** (TOY.r - 1)
        (GT**12345) ** (TOY.r - 1)
        assert GT in shared_tables.tables and shared_tables.counts
        precompute.clear_caches()
        assert not shared_tables.tables and not shared_tables.counts


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([GT, GT**12345, UNITARY, Fq2(Q - 1, 0, Q)]),
    st.integers(0, 1 << 200) | edges,
)
def test_lucas_ladder_is_the_trace_of_a_power(base, k):
    """``(V_k, V_{k+1})`` of ``Tr(u)`` are the traces of ``u^k`` and
    ``u^(k+1)`` for every ``u`` of norm 1: what the PKE and the final
    exponentiation read."""
    trace = 2 * base.a % Q
    assert lucas_ladder(trace, k, Q) == tuple(
        2 * plain_pow(base, e).a % Q for e in (k, k + 1)
    )
