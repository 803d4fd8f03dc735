"""Validation of precomputed Type-A parameter sets and the generator."""

import pytest

from repro.crypto import randomness
from repro.crypto.group import PairingGroup
from repro.crypto.pairing import _naf_digits, precompute_miller
from repro.crypto.params import (
    PAPER,
    PARAM_SETS,
    TEST,
    TOY,
    TypeAParams,
    generate_type_a_params,
    is_probable_prime,
)
from repro.errors import ParameterError


class TestPrimality:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 97, 101):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for n in (0, 1, 4, 9, 91, 561, 1105):  # includes Carmichael numbers
            assert not is_probable_prime(n)

    def test_large_prime(self):
        assert is_probable_prime((1 << 127) - 1)  # Mersenne prime
        assert not is_probable_prime((1 << 128) - 1)


class TestPrecomputedSets:
    @pytest.mark.parametrize("params", [TOY, TEST, PAPER], ids=lambda p: p.name)
    def test_invariants(self, params):
        assert is_probable_prime(params.r)
        assert is_probable_prime(params.q)
        assert params.q == params.h * params.r - 1
        assert params.q % 4 == 3
        assert params.h % 4 == 0
        # generator lies on the curve and has exact order r
        rhs = (params.gx**3 + params.gx) % params.q
        assert (params.gy * params.gy) % params.q == rhs

    def test_expected_bit_lengths(self):
        assert TOY.r.bit_length() == 64
        assert TEST.r.bit_length() == 112
        assert PAPER.r.bit_length() == 160
        assert PAPER.q.bit_length() == 512

    def test_registry(self):
        assert set(PARAM_SETS) == {"TOY", "TEST", "PAPER"}

    def test_byte_widths(self):
        assert PAPER.q_bytes == 64
        assert PAPER.r_bytes == 20


class TestPaperIsPbcAParam:
    """``PAPER`` is PBC's ``a.param``, the curve the paper's prototype ran on."""

    def test_constants(self):
        assert (PAPER.q, PAPER.h, PAPER.r) == (
            8780710799663312522437781984754049815806883199414208211028653399266475630880222957078625179422662221423155858769582317459277713367317481324925129998224791,
            12016012264891146079388821366740534204802954401251311822919615131047207289359704531102844802183906537786776,
            2**159 + 2**107 + 1,
        )

    def test_solinas_order_adds_twice(self):
        assert sum(1 for digit in _naf_digits(PAPER.r) if digit) == 2

    @randomness.seeded(44)
    def test_a_point_stores_160_lines(self):
        # 159 tangents and the chord at 2^107; the last chord, through
        # (r - 1)P = -P, is the vertical line the walk eliminates
        point = PairingGroup("PAPER").random_g1()
        steps = precompute_miller(point).steps
        assert sum(len(step) for step in steps) == 160
        assert [i for i, step in enumerate(steps) if len(step) == 2] == [51]


class TestGeneration:
    def test_deterministic_with_seed(self):
        a = generate_type_a_params(40, 96, seed=7)
        b = generate_type_a_params(40, 96, seed=7)
        assert (a.r, a.q, a.h) == (b.r, b.q, b.h)

    def test_fresh_params_valid(self):
        params = generate_type_a_params(40, 96, name="tiny", seed=99)
        assert is_probable_prime(params.r)
        assert is_probable_prime(params.q)
        assert params.q % 4 == 3

    def test_rejects_too_small_gap(self):
        with pytest.raises(ParameterError):
            generate_type_a_params(40, 42)

    def test_constructor_validates(self):
        with pytest.raises(ParameterError):
            TypeAParams(name="bad", r=7, h=4, q=29, gx=0, gy=0)  # 29 != 4*7-1
        with pytest.raises(ParameterError):
            TypeAParams(name="bad", r=7, h=6, q=41, gx=0, gy=0)  # 41 % 4 == 1
