"""Finite-field arithmetic for the pairing substrate.

Two fields are needed by the Type-A (supersingular, embedding degree 2)
pairing used throughout this reproduction:

* the prime field ``F_q`` — represented directly as Python ints reduced
  modulo ``q`` (Python's native bignums are the fastest arbitrary-precision
  integers available to us), and
* the quadratic extension ``F_q² = F_q[i] / (i² + 1)`` — valid because the
  Type-A prime satisfies ``q ≡ 3 (mod 4)``, so ``−1`` is a non-residue.

:class:`Fq2` is a small immutable value class.  The pairing hot loop uses
its methods directly; they are written to minimise the number of modular
multiplications (Karatsuba-style 3-mult product, 2-mult squaring).
"""

from __future__ import annotations

from ..errors import ParameterError
from ..obs.hooks import record_op
from .comb import ROW, shared_tables, signed_digits

__all__ = ["Fq2", "PowerTable", "fq_inv", "fq_batch_inv", "fq_sqrt", "fq_is_square", "lucas_ladder"]


def fq_inv(a: int, q: int) -> int:
    """Return the inverse of ``a`` modulo the prime ``q``.

    Raises :class:`ZeroDivisionError` when ``a ≡ 0 (mod q)``, matching the
    behaviour of :func:`pow` with exponent ``-1``.
    """
    return pow(a, -1, q)


def fq_batch_inv(values: list[int], q: int) -> list[int]:
    """Invert every non-zero entry of ``values`` (each reduced modulo ``q``).

    Montgomery's simultaneous-inversion trick: one :func:`fq_inv` of the
    running product plus three multiplications per entry.  Zeros come back
    as zeros, so a batch may carry points at infinity (``Z = 0``).
    """
    if not values:
        return []
    prefix = []
    acc = 1
    for value in values:
        prefix.append(acc)
        if value:
            acc = acc * value % q
    inv = fq_inv(acc, q)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        if values[i]:
            out[i] = inv * prefix[i] % q
            inv = inv * values[i] % q
    return out


def fq_is_square(a: int, q: int) -> bool:
    """Euler-criterion quadratic-residue test in ``F_q`` (0 counts as square)."""
    a %= q
    if a == 0:
        return True
    return pow(a, (q - 1) // 2, q) == 1


def fq_sqrt(a: int, q: int) -> int:
    """Return a square root of ``a`` in ``F_q`` for ``q ≡ 3 (mod 4)``.

    The caller is expected to have verified that ``a`` is a quadratic
    residue (see :func:`fq_is_square`); a :class:`ParameterError` is raised
    otherwise so silent corruption cannot propagate into point decoding.
    """
    if q % 4 != 3:
        raise ParameterError(f"fq_sqrt requires q ≡ 3 (mod 4), got q % 4 == {q % 4}")
    root = pow(a, (q + 1) // 4, q)
    if (root * root) % q != a % q:
        raise ParameterError("fq_sqrt called on a non-residue")
    return root


def lucas_ladder(trace: int, k: int, q: int) -> tuple[int, int]:
    """``(V_k, V_{k+1})`` modulo ``q`` of ``V_0 = 2``, ``V_1 = trace``,
    ``V_{j+1} = trace·V_j − V_{j−1}``: for ``u`` of norm 1 and ``trace =
    u + ū``, ``V_k = u^k + ū^k``.  One squaring and one multiplication a bit
    of ``k`` (``V_{2j} = V_j² − 2``, ``V_{2j+1} = V_j·V_{j+1} − trace``)."""
    v0, v1 = 2, trace % q
    for bit in bin(k)[2:]:
        if bit == "1":
            v0, v1 = (v0 * v1 - trace) % q, (v1 * v1 - 2) % q
        else:
            v0, v1 = (v0 * v0 - 2) % q, (v0 * v1 - trace) % q
    return v0, v1


class Fq2:
    """An element ``a + b·i`` of ``F_q² = F_q[i]/(i²+1)``.

    Instances are immutable; arithmetic returns new objects.  ``q`` is
    carried on the element — profiling showed the attribute lookup is noise
    next to the bignum multiplies, and it keeps the API self-contained.
    """

    __slots__ = ("a", "b", "q")

    def __init__(self, a: int, b: int, q: int):
        self.a = a % q
        self.b = b % q
        self.q = q

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, q: int) -> "Fq2":
        return cls(1, 0, q)

    # -- predicates --------------------------------------------------------

    def is_one(self) -> bool:
        return self.a == 1 and self.b == 0

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fq2):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.q == other.q

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.q))

    def __mul__(self, other: "Fq2") -> "Fq2":
        # (a + bi)(c + di) = (ac − bd) + ((a+b)(c+d) − ac − bd)·i
        q = self.q
        ac = self.a * other.a
        bd = self.b * other.b
        cross = (self.a + self.b) * (other.a + other.b) - ac - bd
        return Fq2(ac - bd, cross, q)

    def square(self) -> "Fq2":
        # (a + bi)² = (a+b)(a−b) + 2ab·i  — two multiplications.
        q = self.q
        a, b = self.a, self.b
        return Fq2((a + b) * (a - b), 2 * a * b, q)

    def conjugate(self) -> "Fq2":
        return Fq2(self.a, -self.b, self.q)

    def norm(self) -> int:
        """``a² + b²``, which is ``self^(q+1)``: 1 for every GT element."""
        return (self.a * self.a + self.b * self.b) % self.q

    def __pow__(self, exponent: int) -> "Fq2":
        """``self^exponent``; an element of norm 1 (every GT element) is
        served from its shared comb table once it has earned one
        (:mod:`repro.crypto.comb`), anything else by square-and-multiply.
        A negative exponent is taken modulo the norm-1 group's order
        ``q + 1``; outside that group it is refused."""
        record_op("gt_exp")
        q = self.q
        if self.norm() == 1:
            exponent %= q + 1
            table = shared_tables.lookup(self, exponent.bit_length())
            if table is not None:
                return table.pow(exponent)
        elif exponent < 0:
            raise ValueError("a negative power of an F_q2 element of norm other than 1")
        result = Fq2.one(q)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base.square()
            exponent >>= 1
        return result

    def comb_table(self) -> "PowerTable":
        """A new comb table for this base (what a
        :class:`~repro.crypto.comb.TableCache` builds)."""
        return PowerTable(self)


class PowerTable:
    """Signed comb precomputation for the powers of one base ``B`` of norm 1.

    ``rows[j][d-1] = B^(d·32^j)`` for ``d ∈ [1, 16]``; a row is added the
    first time an exponent's signed digits
    (:func:`~repro.crypto.comb.signed_digits`) reach it, from the square of
    the row before's last entry.  A negative digit selects the conjugate of
    an entry — its inverse, at norm 1 — so :meth:`pow` costs one
    multiplication per non-zero digit.  ``max_bits`` covers every exponent
    :meth:`Fq2.__pow__` hands over: it reduces them modulo ``q + 1``.
    """

    __slots__ = ("base", "max_bits", "rows")

    def __init__(self, base: Fq2):
        if base.norm() != 1:
            raise ValueError("only an element of norm 1 has a comb table")
        self.base = base
        self.max_bits = (base.q + 1).bit_length()
        self.rows: list[list[Fq2]] = []

    def fill(self) -> None:
        """Nothing up front: a row is added when an exponent first reaches it."""

    def pow(self, k: int) -> Fq2:
        """``B^k`` by table lookups, for ``k ≥ 0``."""
        digits = signed_digits(k)
        result = None
        for row, digit in zip(self._rows(len(digits)), digits):
            if digit:
                entry = row[digit - 1] if digit > 0 else row[-digit - 1].conjugate()
                result = entry if result is None else result * entry
        return Fq2.one(self.base.q) if result is None else result

    def _rows(self, count: int) -> list[list[Fq2]]:
        """At least ``count`` rows, grown on a copy (a concurrent reader
        keeps a consistent list)."""
        rows = self.rows
        if len(rows) < count:
            rows = list(rows)
            seed = rows[-1][-1].square() if rows else self.base  # B^(32^j)
            while len(rows) < count:
                row = [seed]
                for _ in range(1, ROW):
                    row.append(row[-1] * seed)
                rows.append(row)
                seed = row[-1].square()
            self.rows = rows
        return rows
