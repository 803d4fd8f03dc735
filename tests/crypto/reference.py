"""Affine reference arithmetic for the ladder, comb and Miller-loop tests.

Nothing here touches the code under test beyond ``Point.__add__`` and
``Fq2.__mul__`` (and :func:`repro.crypto.field.fq_inv` for :func:`inverse`):
the single-operation group laws are the reference every
faster path is held to.  The one exception is :func:`eager_comb_rows`, the
whole-table comb build that lazily filled tables are held to, entry for
entry; it is itself checked against :func:`plain_mul`.
"""

from repro.crypto.comb import ROW, WINDOW
from repro.crypto.curve import Point
from repro.crypto.field import Fq2, fq_inv, fq_is_square, fq_sqrt
from repro.crypto.jacobian import add_many, double, normalise
from repro.crypto.params import TOY


def plain_mul(point, k):
    """Affine double-and-add: nothing but ``Point.__add__``."""
    if k < 0:
        point, k = -point, -k
    result = Point(None, None, point.params)
    while k:
        if k & 1:
            result = result + point
        point = point + point
        k >>= 1
    return result


def inverse(element):
    """``1/(a + bi) = (a − bi) / (a² + b²)`` in ``F_q²`` (the program
    inverts only in ``F_q``: in GT the inverse is the conjugate)."""
    q = element.q
    norm = element.norm()
    if norm == 0:
        raise ZeroDivisionError("inverse of zero in F_q2")
    inv_norm = fq_inv(norm, q)
    return Fq2(element.a * inv_norm, -element.b * inv_norm, q)


def plain_pow(element, k):
    """Square-and-multiply in ``F_q²``: nothing but ``Fq2.__mul__`` (and
    :func:`inverse` for a negative ``k``) — no comb table, no reduction."""
    if k < 0:
        element, k = inverse(element), -k
    result = Fq2.one(element.q)
    while k:
        if k & 1:
            result = result * element
        element = element * element
        k >>= 1
    return result


def binary_digits(k):
    """``k``'s bits, most significant first, without the leading 1."""
    return tuple(int(bit) for bit in bin(k)[3:])


def naf_digits(k):
    """``k``'s non-adjacent form (digits in {−1, 0, 1}, no two adjacent
    non-zero), most significant first, without the leading 1."""
    digits = []
    while k:
        digit = 0
        if k % 2:
            digit = 1 if k % 4 == 1 else -1
        digits.insert(0, digit)
        k = (k - digit) // 2
    assert digits[0] == 1
    return tuple(digits[1:])


def lifted_point(params, start):
    """A raw curve point: *not* multiplied into the order-``r`` subgroup."""
    x = start
    while True:
        rhs = (x * x * x + x) % params.q
        if rhs and fq_is_square(rhs, params.q):
            return Point(x, fq_sqrt(rhs, params.q), params)
        x += 1


def small_order_point(order):
    """A TOY point of exactly ``order`` (a divisor of the cofactor)."""
    for start in range(2, 400):
        point = plain_mul(lifted_point(TOY, start), TOY.r * (TOY.h // order))
        if all(not plain_mul(point, d).is_infinity for d in range(1, order)):
            return point
    raise AssertionError(f"no point of order {order} found")


def eager_comb_rows(base, max_bits):
    """Every entry ``d · 32^j · base`` of a ``max_bits`` comb table, as raw
    affine pairs (``None`` at infinity), built whole: the row seeds
    ``32^j · base`` from one doubling chain, then digit ``d`` of every row
    from digit ``d − 1``, all rows in lock-step."""
    q = base.params.q
    chain = [(base.x, base.y, 1)]
    for _ in range(max_bits // WINDOW):
        X, Y, Z = chain[-1]
        for _ in range(WINDOW):
            X, Y, Z = double(X, Y, Z, q)[:3]
        chain.append((X, Y, Z))
    seeds = [entry and entry[:2] for entry in normalise(chain, q)]
    digits = [seeds]
    for _ in range(1, ROW):
        digits.append(add_many(digits[-1], seeds, q))
    return [list(row) for row in zip(*digits)]
