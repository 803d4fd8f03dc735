"""Inversion-sparing arithmetic on ``y² = x³ + x`` over raw ints.

A modular inverse costs 40–55 field multiplications in CPython, so no
loop of this package pays one per step.  A *dependent* chain — one ladder,
one Miller loop — walks in Jacobian coordinates: a triple ``(X, Y, Z)``
stands for the affine point ``(X/Z², Y/Z³)``, ``Z = 0`` is the point at
infinity, affine operands (table entries, the loop's base point) are added
with the cheaper mixed formula, and the result pays one inversion.
*Independent* additions in hand at once — the comb multiplications of one
``HVE.encrypt``, the rows of a comb table — stay affine and share one
inversion per step (:func:`add_many`, over
:func:`repro.crypto.field.fq_batch_inv`): 6 multiplications an addition
against 11 mixed, and nothing to convert back.

The two step functions also return the numerator of the slope of the line
they implicitly drew (the slope is that numerator over the new ``Z``):
Miller's algorithm needs exactly that line, a plain ladder ignores it.
"""

from __future__ import annotations

from .field import fq_batch_inv

__all__ = ["INFINITY", "double", "add_affine", "add_many", "normalise", "multiples", "scalar_mul"]

INFINITY = (1, 1, 0)


def double(X: int, Y: int, Z: int, q: int) -> tuple[int, int, int, int]:
    """``2·(X : Y : Z)`` as ``(X3, Y3, Z3, M)``.

    The tangent at the input has slope ``M / Z3`` with ``M = 3X² + Z⁴``.
    A 2-torsion input (``Y = 0``) or infinity gives ``Z3 = 0``, infinity,
    with no special case.
    """
    YY = Y * Y % q
    ZZ = Z * Z % q
    S = 4 * X * YY % q
    M = (3 * X * X + ZZ * ZZ) % q
    X3 = (M * M - 2 * S) % q
    return X3, (M * (S - X3) - 8 * YY * YY) % q, 2 * Y * Z % q, M


def add_affine(X: int, Y: int, Z: int, x2: int, y2: int, q: int) -> tuple[int, int, int, int]:
    """``(X : Y : Z) + (x2, y2)`` as ``(X3, Y3, Z3, R)`` (mixed addition).

    The line through the two points — the tangent, when they coincide —
    has slope ``R / Z3``.  Opposite points sum to infinity (``Z3 = 0``).
    """
    if not Z:
        return x2, y2, 1, 0
    ZZ = Z * Z % q
    H = (x2 * ZZ - X) % q
    R = (y2 * (ZZ * Z % q) - Y) % q
    if not H:
        if R:
            return 1, 1, 0, 0
        return double(x2, y2, 1, q)
    HH = H * H % q
    HHH = H * HH % q
    V = X * HH % q
    X3 = (R * R - HHH - 2 * V) % q
    return X3, (R * (V - X3) - Y * HHH) % q, Z * H % q, R


def add_many(
    lhs: list[tuple[int, int] | None], rhs: list[tuple[int, int] | None], q: int
) -> list[tuple[int, int] | None]:
    """The affine sums ``lhs[i] + rhs[i]`` (``None`` is infinity) — the
    textbook chord-and-tangent law on every branch, with one inversion
    for the whole list."""
    denominators = []
    for a, b in zip(lhs, rhs):
        if a is None or b is None:
            denominators.append(0)
        elif a[0] != b[0]:
            denominators.append(b[0] - a[0])
        else:  # the tangent's 2y, or 0 for opposite points and the 2-torsion
            denominators.append(2 * a[1] if (a[1] + b[1]) % q else 0)
    out = []
    for a, b, inverse in zip(lhs, rhs, fq_batch_inv(denominators, q)):
        if inverse:
            x1, y1 = a
            x2, y2 = b
            slope = (y2 - y1 if x1 != x2 else 3 * x1 * x1 + 1) * inverse % q
            x3 = (slope * slope - x1 - x2) % q
            out.append((x3, (slope * (x1 - x3) - y1) % q))
        elif a is None:
            out.append(b)
        else:
            out.append(a if b is None else None)
    return out


def normalise(chain: list[tuple[int, int, int]], q: int) -> list[tuple[int, int, int] | None]:
    """Affine ``(x, y, 1/Z)`` for every triple of ``chain``, ``None`` for
    infinity — one inversion for the whole list."""
    out: list[tuple[int, int, int] | None] = []
    for (X, Y, _), zi in zip(chain, fq_batch_inv([Z for _, _, Z in chain], q)):
        if zi:
            zz = zi * zi % q
            out.append((X * zz % q, Y * zz % q * zi % q, zi))
        else:
            out.append(None)
    return out


def multiples(x: int, y: int, count: int, q: int) -> list[tuple[int, int, int] | None]:
    """``[1·P, 2·P, …, count·P]`` for affine ``P = (x, y)``, normalised together."""
    chain = []
    X, Y, Z = x, y, 1
    for _ in range(count - 1):
        X, Y, Z, _ = add_affine(X, Y, Z, x, y, q)
        chain.append((X, Y, Z))
    return [(x, y, 1)] + normalise(chain, q)


def scalar_mul(x: int, y: int, k: int, q: int, window_bits: int) -> tuple[int, int, int] | None:
    """``k·(x, y)`` for ``k > 0`` by the fixed-window ladder; ``None`` is infinity.

    ``2^w − 1`` affine multiples are built first (one shared inversion,
    none at ``w = 1``, which is plain double-and-add); each window then
    costs ``w`` doublings and at most one mixed addition, and the result is
    converted back once.
    """
    mask = (1 << window_bits) - 1
    table = multiples(x, y, mask, q)
    digits = []
    while k:
        digits.append(k & mask)
        k >>= window_bits
    X, Y, Z = INFINITY
    for digit in reversed(digits):
        if Z:
            for _ in range(window_bits):
                X, Y, Z, _ = double(X, Y, Z, q)
        entry = table[digit - 1] if digit else None
        if entry is not None:
            X, Y, Z, _ = add_affine(X, Y, Z, entry[0], entry[1], q)
    return normalise([(X, Y, Z)], q)[0]
