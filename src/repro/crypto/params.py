"""Type-A pairing parameters: PBC's ``a.param`` and generated sets.

A Type-A curve (the family used by PBC/jPBC, and therefore by both crypto
libraries the P3S paper builds on) is the supersingular curve

    E : y² = x³ + x   over F_q,   q ≡ 3 (mod 4),

which has exactly ``q + 1`` points over ``F_q`` and embedding degree 2.
Parameters are a prime group order ``r`` and a prime ``q = h·r − 1`` for a
cofactor ``h ≡ 0 (mod 4)`` (which forces ``q ≡ 3 (mod 4)``).  ``G1`` is the
order-``r`` subgroup of ``E(F_q)`` and ``GT`` the order-``r`` subgroup of
``F_q²``.

Three sets are shipped (see DESIGN.md §6):

* ``TOY``    — fast unit tests and examples, generated;
* ``TEST``   — integration tests, generated;
* ``PAPER``  — PBC's ``a.param`` (cpabe's compiled-in curve, jPBC's
  ``a.properties``), the paper prototype's curve: 512-bit ``q`` and the
  Solinas prime ``r = 2^159 + 2^107 + 1``, so a Miller walk draws 160 lines.

:func:`generate_type_a_params` reproduces how ``TOY`` and ``TEST`` were
found, so nothing here is magic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import ParameterError
from .jacobian import scalar_mul

__all__ = [
    "TypeAParams",
    "generate_type_a_params",
    "is_probable_prime",
    "TOY",
    "TEST",
    "PAPER",
    "PARAM_SETS",
]

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
)


MILLER_RABIN_ROUNDS = 40  # error at most 4^-40 for a composite


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test with :data:`MILLER_RABIN_ROUNDS`
    random bases."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    rng = random.Random(0xC0FFEE ^ n)  # deterministic bases: reproducible checks
    for _ in range(MILLER_RABIN_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class TypeAParams:
    """Parameters of one Type-A pairing group.

    Attributes:
        name: human-readable label (``"TOY"``, ``"PAPER"``, ...).
        r: prime order of G1 and GT.
        h: cofactor, ``q = h·r − 1``; multiplying a random curve point by
           ``h`` lands in G1.
        q: field prime, ``q ≡ 3 (mod 4)``.
        gx, gy: affine coordinates of the fixed G1 generator.
    """

    name: str
    r: int
    h: int
    q: int
    gx: int
    gy: int

    def __post_init__(self) -> None:
        if self.q != self.h * self.r - 1:
            raise ParameterError("q must equal h*r - 1")
        if self.q % 4 != 3:
            raise ParameterError("q must be ≡ 3 (mod 4)")

    @property
    def q_bytes(self) -> int:
        """Width of one F_q element in bytes (used by all serializers)."""
        return (self.q.bit_length() + 7) // 8

    @property
    def r_bytes(self) -> int:
        return (self.r.bit_length() + 7) // 8


def _find_generator(q: int, r: int, h: int, seed: int = 1) -> tuple[int, int]:
    """Deterministically find a generator of the order-``r`` subgroup.

    Walks x-coordinates from ``seed``, lifts to a curve point, multiplies by
    the cofactor, and returns the first point of exact order ``r``.  Uses
    the raw-int ladder directly: :mod:`.curve` imports this module.
    """
    x = seed
    while True:
        rhs = (x * x * x + x) % q
        if pow(rhs, (q - 1) // 2, q) == 1 or rhs == 0:
            y = pow(rhs, (q + 1) // 4, q)
            if (y * y) % q == rhs:
                point = scalar_mul(x, y, h, q, 4)
                if point is not None:
                    px, py = point[:2]
                    if scalar_mul(px, py, r, q, 4) is None:
                        return px, py
        x += 1


def generate_type_a_params(
    r_bits: int, q_bits: int, name: str = "custom", seed: int | None = None
) -> TypeAParams:
    """Generate a fresh Type-A parameter set.

    Picks a random ``r_bits``-bit prime ``r`` and scans cofactors
    ``h ≡ 0 (mod 4)`` of about ``q_bits − r_bits`` bits until
    ``q = h·r − 1`` is prime.  With ``seed`` set the search is
    deterministic (used to produce ``TOY`` and ``TEST`` below).
    """
    if q_bits <= r_bits + 3:
        raise ParameterError("q_bits must exceed r_bits by at least 4 (cofactor of 4)")
    rng = random.Random(seed)
    while True:
        r = rng.getrandbits(r_bits) | (1 << (r_bits - 1)) | 1
        if not is_probable_prime(r):
            continue
        h0 = rng.getrandbits(q_bits - r_bits)
        h0 = (h0 | (1 << (q_bits - r_bits - 1))) & ~0b11  # top bit set, multiple of 4
        for delta in range(0, 1 << 16, 4):
            h = h0 + delta
            q = h * r - 1
            if q.bit_length() != q_bits:
                continue
            if q % 4 == 3 and is_probable_prime(q):
                gx, gy = _find_generator(q, r, h)
                return TypeAParams(name=name, r=r, h=h, q=q, gx=gx, gy=gy)


# ---------------------------------------------------------------------------
# The shipped sets; tests/crypto/test_params.py re-validates every invariant.
# TOY and TEST are generated at import (seeds chosen once; a few ms).  PAPER
# is a.param, whose file fixes no generator: ours is the first from x = 1.
# ---------------------------------------------------------------------------
TOY = generate_type_a_params(64, 160, name="TOY", seed=2012)
TEST = generate_type_a_params(112, 256, name="TEST", seed=2012)
_A_R = 2**159 + 2**107 + 1
_A_H = int("12016012264891146079388821366740534204802954401251311822919615131047207289"
           "359704531102844802183906537786776")
_A_Q = int("87807107996633125224377819847540498158068831994142082110286533992664756308"
           "80222957078625179422662221423155858769582317459277713367317481324925129998"
           "224791")
PAPER = TypeAParams("PAPER", _A_R, _A_H, _A_Q, *_find_generator(_A_Q, _A_R, _A_H))

PARAM_SETS = {"TOY": TOY, "TEST": TEST, "PAPER": PAPER}
