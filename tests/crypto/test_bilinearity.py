"""Bilinearity of the modified Tate pairing: ê(aP, bQ) == ê(P, Q)^(ab).

The property every scheme in the repo rests on, exercised on random
scalars at TOY parameters and across the precomputed evaluation path.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.group import PairingGroup
from repro.crypto.pairing import tate_pairing

SEED = 0xB111


@pytest.fixture(scope="module")
def group() -> PairingGroup:
    return PairingGroup("TOY")


@pytest.fixture(scope="module")
def rng() -> random.Random:
    return random.Random(SEED)


def test_bilinear_in_both_arguments(group, rng):
    g = group.generator
    base = tate_pairing(g, g)
    for _ in range(5):
        a = rng.randrange(1, group.order)
        b = rng.randrange(1, group.order)
        assert tate_pairing(g * a, g * b) == base ** (a * b % group.order)


def test_bilinear_factor_moves_between_arguments(group, rng):
    g = group.generator
    a = rng.randrange(1, group.order)
    b = rng.randrange(1, group.order)
    assert tate_pairing(g * a, g * b) == tate_pairing(g, g * (a * b % group.order))
    assert tate_pairing(g * a, g * b) == tate_pairing(g * (a * b % group.order), g)


def test_symmetry_on_g1(group, rng):
    g = group.generator
    p = g * rng.randrange(1, group.order)
    q = g * rng.randrange(1, group.order)
    assert tate_pairing(p, q) == tate_pairing(q, p)


def test_identity_absorbs(group, rng):
    g = group.generator
    p = g * rng.randrange(1, group.order)
    infinity = g * group.order
    assert infinity.is_infinity
    assert tate_pairing(p, infinity) == group.gt_identity()
    assert tate_pairing(infinity, p) == group.gt_identity()


def test_nondegenerate(group):
    assert tate_pairing(group.generator, group.generator) != group.gt_identity()


def test_order_r_in_gt(group, rng):
    g = group.generator
    e = tate_pairing(g * rng.randrange(1, group.order), g)
    assert e**group.order == group.gt_identity()


def test_bilinearity_holds_on_precomputed_path(group, rng):
    g = group.generator
    a = rng.randrange(1, group.order)
    b = rng.randrange(1, group.order)
    p, q = g * a, g * b
    pre = group.precompute_pairing(p)
    assert group.multi_pair_precomputed([(pre, q)]) == tate_pairing(g, g) ** (a * b % group.order)
