"""Bilinearity, non-degeneracy, and multi-pairing correctness."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto.curve import Point, hash_to_point
from repro.crypto.field import Fq2
from repro.crypto.group import PairingGroup
from repro.crypto.pairing import (
    final_exponentiation,
    miller_loop,
    multi_pairing,
    multi_pairing_precomputed,
    precompute_miller,
    tate_pairing,
)
from repro.crypto.params import PAPER, TEST, TOY
from repro.errors import ParameterError

from .reference import binary_digits, inverse, lifted_point, naf_digits, plain_mul, plain_pow, small_order_point

G = Point.generator(TOY)
R = TOY.r
E = tate_pairing(G, G)

scalars = st.integers(min_value=1, max_value=R - 1)


class TestTatePairing:
    def test_non_degenerate(self):
        assert not E.is_one()

    def test_order_r(self):
        assert (E**R).is_one()

    def test_bilinear_left(self):
        a = 123456789
        assert tate_pairing(G * a, G) == E**a

    def test_bilinear_right(self):
        b = 987654321
        assert tate_pairing(G, G * b) == E**b

    def test_symmetric(self):
        p, q = G * 17, G * 91
        assert tate_pairing(p, q) == tate_pairing(q, p)

    def test_infinity_maps_to_identity(self):
        inf = Point(None, None, TOY)
        assert tate_pairing(inf, G).is_one()
        assert tate_pairing(G, inf).is_one()

    def test_edge_scalar_r_minus_one(self):
        # exercises the final-add vertical line (T = −P) inside Miller's loop
        assert tate_pairing(G * (R - 1), G) == E ** (R - 1)

    def test_hashed_points_pair(self):
        h1 = hash_to_point(b"x", TOY)
        h2 = hash_to_point(b"y", TOY)
        assert not tate_pairing(h1, h2).is_one()

    def test_miller_loop_rejects_infinity(self):
        with pytest.raises(ParameterError):
            miller_loop(Point(None, None, TOY), G)

    @settings(max_examples=15, deadline=None)
    @given(scalars, scalars)
    def test_bilinearity_property(self, a, b):
        assert tate_pairing(G * a, G * b) == E ** ((a * b) % R)


class TestMultiPairing:
    def test_empty_product_is_identity(self):
        assert multi_pairing([], TOY).is_one()

    def test_single_pair_matches_tate(self):
        p, q = G * 7, G * 11
        assert multi_pairing([(p, q)], TOY) == tate_pairing(p, q)

    def test_product_of_three(self):
        pairs = [(G * 2, G * 3), (G * 5, G * 7), (G * 11, G * 13)]
        expected = E ** ((2 * 3 + 5 * 7 + 11 * 13) % R)
        assert multi_pairing(pairs, TOY) == expected

    def test_infinity_pairs_skipped(self):
        inf = Point(None, None, TOY)
        pairs = [(G * 2, G * 3), (inf, G), (G, inf)]
        assert multi_pairing(pairs, TOY) == E**6

    def test_edge_r_minus_one_in_product(self):
        pairs = [(G * (R - 1), G), (G, G)]
        assert multi_pairing(pairs, TOY) == E ** ((R - 1 + 1) % R)  # identity
        assert multi_pairing(pairs, TOY).is_one()

    def test_mismatched_params_rejected(self):
        other = Point.generator(TEST)
        with pytest.raises(ParameterError):
            multi_pairing([(G, other)], TOY)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.tuples(scalars, scalars), min_size=1, max_size=4))
    def test_matches_naive_product(self, scalar_pairs):
        pairs = [(G * a, G * b) for a, b in scalar_pairs]
        exponent = sum(a * b for a, b in scalar_pairs) % R
        assert multi_pairing(pairs, TOY) == E**exponent


# -- the Jacobian Miller walk against an affine textbook reference -----------------


NAF = naf_digits(R)


def reference_miller(p, qp, digits=NAF):
    """Miller's loop over a signed digit string with ``Point.__add__`` for T
    and affine slopes; a −1 digit draws the chord through −P; vertical lines
    are dropped (denominator elimination), T = O ends the walk."""
    q = p.params.q

    def line(a, b):
        if a.x == b.x and (a.y + b.y) % q == 0:
            return Fq2.one(q)
        if a == b:
            lam = (3 * a.x * a.x + 1) * pow(2 * a.y, -1, q) % q
        else:
            lam = (b.y - a.y) * pow(b.x - a.x, -1, q) % q
        return Fq2(lam * (qp.x + a.x) - a.y, qp.y, q)

    f = Fq2.one(q)
    t = p
    for digit in digits:
        f = f.square()
        if not t.is_infinity:
            f, t = f * line(t, t), t + t
        addend = p if digit > 0 else -p
        if digit and not t.is_infinity:
            f, t = f * line(t, addend), t + addend
    return f


class TestMillerBranches:
    def reduced(self, f):
        return final_exponentiation(f, TOY)

    def check(self, p, qp):
        from repro.crypto.pairing import miller_eval, precompute_miller

        expected = self.reduced(reference_miller(p, qp))
        assert self.reduced(miller_loop(p, qp)) == expected
        assert self.reduced(miller_eval(precompute_miller(p), qp)) == expected
        assert multi_pairing([(p, qp)], TOY) == expected
        # a raw Miller value is one representative of a coset of F_q*: the
        # monic lines are divided by y_Q
        for raw in (miller_loop(p, qp), miller_eval(precompute_miller(p), qp)):
            ratio = raw * inverse(reference_miller(p, qp))
            assert ratio.b == 0 and not ratio.is_zero()

    def test_generic_points_end_on_the_vertical_line(self):
        # r is odd, so every G1 walk ends with T = ∓P at the final addition
        self.check(G * 1234567, G * 7654321)
        self.check(hash_to_point(b"p", TOY), hash_to_point(b"q", TOY))

    def test_second_argument_is_plus_or_minus_the_first(self):
        p = G * 99
        self.check(p, p)
        self.check(p, -p)

    def test_tangent_branch_of_the_addition_step(self):
        # r's NAF opens 1 0 0 −1: the first addition adds −P to T = 8P, and
        # for an order-9 point 8P = −P, so the chord through −P is a tangent
        assert NAF[:3] == (0, 0, -1)
        self.check(small_order_point(9), G * 31337)

    def test_early_vertical_line_ends_the_walk(self):
        # an order-3 point has T = 7P = P after the first addition; two
        # digits on, T = 28P = P meets −P: a vertical line, and T = O
        assert NAF[:5] == (0, 0, -1, 0, -1)
        self.check(small_order_point(3), G * 31337)

    def test_doubling_a_two_torsion_point_ends_the_walk(self):
        self.check(small_order_point(4), G * 31337)

    def test_pair_at_infinity_inside_a_product(self):
        inf = Point(None, None, TOY)
        p, qp = G * 5, hash_to_point(b"q", TOY)
        small = small_order_point(5)
        product = multi_pairing([(p, qp), (inf, qp), (small, G), (p, inf), (G, G * 3)], TOY)
        expected = self.reduced(
            reference_miller(p, qp) * reference_miller(small, G) * reference_miller(G, G * 3)
        )
        assert product == expected


@pytest.mark.parametrize("params", [TOY, TEST, PAPER], ids=["TOY", "TEST", "PAPER"])
def test_binary_and_naf_walks_agree_after_the_final_exponentiation(params):
    """The two references differ only by vertical lines, which lie in
    ``F_q``: restating the walks on r's NAF cannot move a pairing value.
    ``PAPER``'s Solinas r has no adjacent set bits, so there its NAF is its
    binary expansion and the two walks are one."""
    rng = random.Random(0x4AF)
    g = Point.generator(params)
    binary, naf = binary_digits(params.r), naf_digits(params.r)
    if params is PAPER:
        assert naf == binary
    else:
        assert sum(1 for d in naf if d) < sum(binary)
    for _ in range(2):
        p, qp = g * rng.randrange(1, params.r), g * rng.randrange(1, params.r)
        by_bits = final_exponentiation(reference_miller(p, qp, binary), params)
        assert final_exponentiation(reference_miller(p, qp, naf), params) == by_bits
        assert tate_pairing(p, qp) == by_bits


# -- the 2-torsion point: on the curve, outside G1, and without a 1/y -------------

TWO_TORSION = Point(0, 0, TOY)


class TestTwoTorsionSecondArgument:
    """``Point.from_bytes`` checks the curve, not the subgroup, so a hostile
    ciphertext can carry ``(0, 0)``.  Its line values lie in ``F_q``: the
    pair contributes the identity, and nothing raises."""

    def test_precomputed_product_drops_the_pair(self):
        group = PairingGroup("TOY")
        kept = [(group.precompute_pairing(G * 7), G * 11), (group.precompute_pairing(G * 3), G)]
        hostile = (group.precompute_pairing(G * 5), TWO_TORSION)
        without = group.multi_pair_precomputed(kept)
        assert group.multi_pair_precomputed(kept[:1] + [hostile] + kept[1:]) == without
        assert group.multi_pair_precomputed([hostile]).is_one()
        assert group.multi_pair([(G * 5, TWO_TORSION)]).is_one()


def curve_points(params):
    """Arbitrary points of ``E(F_q)``: G1 multiples (infinity included),
    points of small order (a lifted point times ``r`` and part of the
    cofactor), and ``(0, 0)``."""
    g = Point.generator(params)
    divisors = [d for d in range(2, 40) if params.h % d == 0]
    small = st.builds(
        lambda start, d: plain_mul(lifted_point(params, start), params.r * (params.h // d)),
        st.integers(2, 200),
        st.sampled_from(divisors),
    )
    return st.one_of(
        st.integers(0, params.r - 1).map(lambda k: g * k),
        small,
        st.just(Point(0, 0, params)),
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(curve_points(TOY), curve_points(TOY)), min_size=1, max_size=3))
@example([(small_order_point(4), TWO_TORSION)])  # a tangent through (0, 0): its value there is 0
@example([(TWO_TORSION, G), (G * 5, TWO_TORSION)])
def test_precomputed_product_equals_the_plain_one_on_any_curve_points(pairs):
    entries = [(None if p.is_infinity else precompute_miller(p), qp) for p, qp in pairs]
    assert multi_pairing_precomputed(entries, TOY) == multi_pairing(pairs, TOY)


def generic_final_exponentiation(f, params):
    """``(f̄ / f) ** ((q + 1)/r)`` by plain square-and-multiply."""
    return plain_pow(f.conjugate() * inverse(f), (params.q + 1) // params.r)


class TestFinalExponentiation:
    """The Lucas ladder against the generic power it replaced."""

    @pytest.mark.parametrize("params", [TOY, TEST, PAPER], ids=["TOY", "TEST", "PAPER"])
    def test_miller_values_of_random_pairs(self, params):
        rng = random.Random(0xF1A1)
        g = Point.generator(params)
        for _ in range(3):
            f = miller_loop(g * rng.randrange(1, params.r), g * rng.randrange(1, params.r))
            assert final_exponentiation(f, params) == generic_final_exponentiation(f, params)

    @pytest.mark.parametrize("params", [TOY, TEST, PAPER], ids=["TOY", "TEST", "PAPER"])
    def test_real_imaginary_one_and_unitary_inputs(self, params):
        q = params.q
        unitary = generic_final_exponentiation(Fq2(3, 4, q), params)  # norm 1, order r
        for f in (Fq2(5, 0, q), Fq2(0, 7, q), Fq2.one(q), Fq2(0, 1, q), Fq2(-1, 0, q), unitary):
            assert final_exponentiation(f, params) == generic_final_exponentiation(f, params), f
        assert final_exponentiation(Fq2(5, 0, q), params).is_one()

    def test_zero_has_no_final_exponentiation(self):
        with pytest.raises(ZeroDivisionError):
            final_exponentiation(Fq2(0, 0, TOY.q), TOY)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, TOY.q - 1), st.integers(0, TOY.q - 1))
    def test_any_nonzero_element(self, a, b):
        f = Fq2(a, b, TOY.q)
        if f.is_zero():
            return
        out = final_exponentiation(f, TOY)
        assert out == generic_final_exponentiation(f, TOY)
        assert (out**R).is_one()
