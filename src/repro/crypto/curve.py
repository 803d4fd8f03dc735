"""Point arithmetic on the Type-A supersingular curve ``y² = x³ + x``.

Points live in ``E(F_q)``; the pairing module applies the distortion map
``ψ(x, y) = (−x, i·y)`` implicitly, so this module never needs points with
``F_q²`` coordinates.

Representation rule: a :class:`Point` is *affine* — at rest, on the wire,
in every table and as every result — so equality, hashing and serialization
see one canonical form.  A modular inverse costs 40–55 field
multiplications, so only the single-operation group law (``+``,
``double``) pays one per call.  A single scalar multiplication is a
dependent chain: Jacobian coordinates, one inversion per result.  A batch
of independent comb multiplications (:func:`mul_many`), with the table
entries it fills, stays affine and walks in lock-step, one inversion per
step.  Both walks are :mod:`repro.crypto.jacobian`'s.
"""

from __future__ import annotations

import hashlib
from itertools import zip_longest

from ..errors import NotOnCurveError, ParameterError, SerializationError
from ..obs.hooks import record_op
from .comb import ROW, WINDOW, TableCache, shared_tables, signed_digits
from .field import fq_inv, fq_is_square, fq_sqrt
from .jacobian import INFINITY, add_affine, add_many, double, normalise, scalar_mul
from .params import TypeAParams

__all__ = ["Point", "hash_to_point", "FixedBaseTable", "fixed_base_table", "mul_many"]

# ---------------------------------------------------------------------------
# Fixed-base precomputation: the G1 half of :mod:`repro.crypto.comb`.
#
# A signed comb table turns a ``b``-bit scalar multiplication from ~``1.5·b``
# group operations into at most ``b/5 + 1`` additions (no doublings at all);
# which bases earn one, and who keeps it, is ``comb``'s ``TableCache``.
#
# A key's table fills in as scalars ask for it.  Construction walks one
# doubling chain ``2^i·B`` (a row's entries 1, 2, 4, 8 and 16), normalised
# once — about a ladder's work.  Any other entry is the sum of two entries
# of its row, filled the first time a signed digit selects it
# (``7 = 8 − 1``; ``11 = 12 − 1`` after ``12 = 8 + 4``), in at most two
# lock-step rounds.
# A base's first multiplication so costs about one and a half ladders
# where a whole table costs about three; the rest of the table's work is
# paid by the base's next few dozen uses, each filling the entries its
# digits select, until the table is whole.  A shared base is filled whole
# when it earns its table: it has proved hot by then (``comb``'s
# ``TableCache``).
#
# A single multiplication (``FixedBaseTable.mul``) is a dependent chain: a
# Jacobian accumulator, one inversion for the result; its fill rounds
# invert once each.  A batch in hand at once (``mul_many``: the 2n of one
# ``HVE.encrypt``) keeps its accumulators affine and advances them in
# lock-step, one shared inversion per digit; the fill rounds of every
# table it touches ride in its first steps' inversions, and an addend a
# round fills joins its accumulator after that round.  Having a batch is
# what selects the walk.  Results are bit-identical to the naive ladder
# either way: the group law is deterministic and every path computes the
# same multiple, in whatever order it adds.
# ---------------------------------------------------------------------------

_MISSING = object()  # a slot no digit has selected yet; infinity is None
# each entry a row's doubling chain lacks as the sum of two of its row's: the
# second on the chain, negated when negative; the first on it or, for 11
# and 13, the 12 filled a round before
_SPLIT = {
    3: (2, 1), 5: (4, 1), 6: (4, 2), 7: (8, -1), 9: (8, 1), 10: (8, 2),
    11: (12, -1), 12: (8, 4), 13: (12, 1), 14: (16, -2), 15: (16, -1),
}


class FixedBaseTable:
    """Signed comb precomputation for one base point, filled as it is used.

    ``rows[j][d-1] = d · 32^j · B`` for ``d ∈ [1, 16]``, ``max_bits // 5 + 1``
    rows: enough for the signed digits of every scalar in ``[0, 2^max_bits)``
    (:func:`~repro.crypto.comb.signed_digits`).  An entry is its affine
    pair packed into one int, ``x << |q| | y`` (68 bytes at ``TOY``, 164 at
    ``PAPER``, where a tuple of two ints took 152 and 248), ``None`` at
    infinity (a base of small order runs out), or :data:`_MISSING` until a
    digit first selects it; the 2-torsion point ``(0, 0)`` packs to ``0``,
    so no entry is ever tested for truth.  A slot goes from missing to its
    value in one assignment, so a second reader that finds it missing
    fills it again, with the same value.  A negative digit selects the
    negated entry ``(x, −y)``, so :meth:`mul` (and a :func:`mul_many`
    batch) needs one lookup, unpacking and addition per digit.  Larger
    scalars fall back to the generic ladder.
    """

    __slots__ = ("base", "max_bits", "rows")

    def __init__(self, base: "Point", max_bits: int):
        if base.is_infinity:
            raise ValueError("cannot build a fixed-base table for the point at infinity")
        self.base = base
        self.max_bits = max_bits
        q = base.params.q
        count = max_bits // WINDOW + 1
        # the doubling chain 2^i·B, normalised once (None once a base of
        # small order has run out: 2^i·B = O) — entry 2^e of every row
        chain = [(base.x, base.y, 1)]
        for _ in range(1, WINDOW * count):
            chain.append(double(*chain[-1], q)[:3])
        chain = [_pack(entry, q) for entry in normalise(chain, q)]
        self.rows = []
        for j in range(count):
            row = [_MISSING] * ROW
            for e in range(WINDOW):
                row[(1 << e) - 1] = chain[WINDOW * j + e]
            self.rows.append(row)

    def _digits(self, k: int) -> list[int]:
        """``k``'s signed digits; ``k`` must be in ``[0, 2^max_bits)``."""
        if k < 0 or k.bit_length() > self.max_bits:
            raise ParameterError(f"scalar outside the comb table's [0, 2^{self.max_bits})")
        return signed_digits(k)

    def fill(self) -> None:
        """Fill every entry now."""
        _fill([(self, [d] * len(self.rows)) for d in range(1, ROW + 1)])

    def mul(self, k: int) -> "Point":
        """``k · B`` by table lookups; ``k`` must be in ``[0, 2^max_bits)``."""
        q = self.base.params.q
        digits = self._digits(k)
        _fill([(self, digits)])
        X, Y, Z = INFINITY
        for row, digit in zip(self.rows, digits):
            # the entry the digit selects, negated for a negative digit
            entry = _signed(row[abs(digit) - 1], digit, q) if digit else None
            if entry is not None:
                X, Y, Z, _ = add_affine(X, Y, Z, entry[0], entry[1], q)
        return Point._from_affine(normalise([(X, Y, Z)], q)[0], self.base.params)


def _plan(walk: "list[tuple[FixedBaseTable, list[int]]]") -> "tuple[list[list], list[list[int]]]":
    """The missing entries the digits of ``walk`` select, in tables on one
    curve, as the lock-step rounds that fill them from their :data:`_SPLIT`
    pairs (each once, however many digits select it; two rounds at most:
    11 and 13 wait for 12), and for each walk the round after which each
    digit's entry is there (0: it is already)."""
    rounds: list[list[tuple[list, int]]] = []
    filled_in: dict[tuple[int, int], int] = {}

    def wait(row: list, d: int) -> int:
        if row[d - 1] is not _MISSING:
            return 0
        key = (id(row), d)
        if key not in filled_in:
            filled_in[key] = wait(row, _SPLIT[d][0]) + 1
            if len(rounds) < filled_in[key]:
                rounds.append([])
            rounds[filled_in[key] - 1].append((row, d))
        return filled_in[key]

    waits = [
        [
            wait(row, abs(digit)) if digit and row[abs(digit) - 1] is _MISSING else 0
            for row, digit in zip(table.rows, digits)
        ]
        for table, digits in walk
    ]
    return rounds, waits


def _operands(jobs: "list[tuple[list, int]]", q: int) -> "tuple[list, list]":
    """The two terms of each ``(row, d)`` entry of a fill round."""
    lhs, rhs = [], []
    for row, d in jobs:
        a, b = _SPLIT[d]
        lhs.append(_signed(row[a - 1], 1, q))
        rhs.append(_signed(row[abs(b) - 1], b, q))
    return lhs, rhs


def _fill(walk: "list[tuple[FixedBaseTable, list[int]]]") -> None:
    """Fill every missing entry the digits of ``walk`` select: one
    :func:`add_many` (one inversion) a round."""
    rounds, _ = _plan(walk)
    q = walk[0][0].base.params.q
    for jobs in rounds:
        sums = add_many(*_operands(jobs, q), q)
        for (row, d), entry in zip(jobs, sums):
            row[d - 1] = _pack(entry, q)


def _order(table: FixedBaseTable, digits: list[int], waits: list[int]) -> "list[tuple]":
    """One accumulator's ``(row, digit)`` a lock-step step: row order, but
    an entry a fill round makes no earlier than the step after that round
    (``(None, 0)``, a step that adds nothing, where none is ready)."""
    if not any(waits):
        return list(zip(table.rows, digits))
    order: list[tuple[list | None, int]] = []
    for j in sorted(range(len(digits)), key=waits.__getitem__):
        order += [(None, 0)] * (waits[j] - len(order))
        order.append((table.rows[j], digits[j]))
    return order


def _pack(entry: "tuple | None", q: int) -> "int | None":
    """An affine ``(x, y, …)`` as the table entry ``x << |q| | y``."""
    return None if entry is None else entry[0] << q.bit_length() | entry[1]


def _signed(entry: "int | None", sign: int, q: int) -> "tuple[int, int] | None":
    """The affine pair of a packed ``entry`` for a positive ``sign``, its
    negation ``(x, −y)`` for a negative one."""
    if entry is None:
        return None
    shift = q.bit_length()
    x = entry >> shift
    y = entry - (x << shift)
    return (x, y) if sign > 0 else (x, -y % q)


def fixed_base_table(point: "Point") -> FixedBaseTable:
    """Get-or-build the shared comb table for ``point`` (explicit warm-up API).

    Services with known-hot bases (the PBE-TS, publishers) call this once
    so even their first request takes the fast path.
    """
    return shared_tables.table(point)


def _served(owner: TableCache, point: "Point", k: int) -> FixedBaseTable | None:
    """Count ``point · k`` (``k ≥ 0``) as one ``g1_exp`` and return the comb
    table of ``owner`` that serves it, if any (none for ``0`` or infinity)."""
    if k == 0 or point.is_infinity:
        return None
    record_op("g1_exp")
    table = owner.lookup(point, k.bit_length())
    if table is not None:
        record_op("g1_exp.fixed_base")
    return table


def mul_many(pairs: "list[tuple[Point, int]]", owner: TableCache = shared_tables) -> "list[Point]":
    """``[base * k for base, k in pairs]`` for bases on one curve, each
    entry counted, promoted and served exactly as ``Point.__mul__`` would
    (from ``owner``, when the bases are one key's own); the comb-table
    entries walk in lock-step, one inversion per digit for all of them,
    and fill their tables' missing entries in the same steps."""
    results: list[Point | None] = []
    walk = []  # (slot, table, digits) of every entry a comb table serves
    for base, k in pairs:
        if base.params.q != pairs[0][0].params.q:
            raise ParameterError("mul_many: bases on different curves")
        if k < 0:
            base, k = -base, -k
        table = _served(owner, base, k)
        if table is None:
            results.append(base.scalar_mul_windowed(k, 4 if k.bit_length() > 32 else 1))
        else:
            walk.append((len(results), table, table._digits(k)))
            results.append(None)
    if not walk:
        return results
    q = pairs[0][0].params.q
    rounds, waits = _plan([(table, digits) for _, table, digits in walk])
    orders = [_order(table, digits, wait) for (_, table, digits), wait in zip(walk, waits)]
    sums: list[tuple[int, int] | None] = [None] * len(walk)
    # fill round i rides along in step i's add_many; its entries join from step i + 1
    for i, step in enumerate(zip_longest(*orders, fillvalue=(None, 0))):
        jobs = rounds[i] if i < len(rounds) else []
        lhs, rhs = _operands(jobs, q)
        addends = [_signed(row[abs(d) - 1], d, q) if d else None for row, d in step]
        sums = add_many(sums + lhs, addends + rhs, q)
        for (row, d), entry in zip(jobs, sums[len(walk) :]):
            row[d - 1] = _pack(entry, q)
        del sums[len(walk) :]
    for (slot, table, _), entry in zip(walk, sums):
        results[slot] = Point._from_affine(entry, table.base.params)
    return results


class Point:
    """An affine point on ``y² = x³ + x`` over ``F_q``, or the point at infinity.

    Immutable.  The point at infinity is represented by
    ``x is None and y is None`` and constructed via :meth:`infinity`.
    """

    __slots__ = ("x", "y", "params")

    def __init__(self, x: int | None, y: int | None, params: TypeAParams, *, check: bool = True):
        self.params = params
        if x is None or y is None:
            self.x = None
            self.y = None
            return
        q = params.q
        self.x = x % q
        self.y = y % q
        if check and not self._on_curve():
            raise NotOnCurveError(f"({x:#x}, {y:#x}) is not on y^2 = x^3 + x")

    @classmethod
    def generator(cls, params: TypeAParams) -> "Point":
        return cls(params.gx, params.gy, params, check=False)

    # -- predicates ------------------------------------------------------------

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def _on_curve(self) -> bool:
        q = self.params.q
        return (self.y * self.y - (self.x * self.x * self.x + self.x)) % q == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self.x == other.x and self.y == other.y and self.params.q == other.params.q

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.params.q))

    # -- group law ---------------------------------------------------------------

    def __neg__(self) -> "Point":
        if self.is_infinity:
            return self
        return Point(self.x, -self.y, self.params, check=False)

    def __add__(self, other: "Point") -> "Point":
        if self.is_infinity:
            return other
        if other.is_infinity:
            return self
        q = self.params.q
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        if x1 == x2:
            if (y1 + y2) % q == 0:
                return Point(None, None, self.params)
            lam = (3 * x1 * x1 + 1) * fq_inv(2 * y1, q) % q
        else:
            lam = (y2 - y1) * fq_inv(x2 - x1, q) % q
        x3 = (lam * lam - x1 - x2) % q
        y3 = (lam * (x1 - x3) - y1) % q
        return Point(x3, y3, self.params, check=False)

    def double(self) -> "Point":
        return self + self

    def __mul__(self, k: int) -> "Point":
        """Scalar multiplication ``k·P``.

        ``k`` is used as given — it is *not* reduced modulo ``r``, because
        cofactor clearing multiplies points that are not yet in the
        order-``r`` subgroup.  A base with a comb table (the shared one,
        earned on its third large use) is served from its signed digits;
        otherwise large scalars use a 4-bit window (fewer additions) and
        small ones plain double-and-add.
        """
        if k < 0:
            return (-self) * (-k)
        table = _served(shared_tables, self, k)
        if table is not None:
            return table.mul(k)
        return self.scalar_mul_windowed(k, 4 if k.bit_length() > 32 else 1)

    __rmul__ = __mul__

    def scalar_mul_windowed(self, k: int, window_bits: int = 4) -> "Point":
        """Fixed-window scalar multiplication.

        Precomputes ``2^w − 1`` multiples, then needs one addition per
        ``w`` doublings — roughly a quarter of the additions of plain
        double-and-add (``w = 1``) for 160-bit scalars at ``w = 4``.
        """
        if k < 0:
            return (-self).scalar_mul_windowed(-k, window_bits)
        if k == 0 or self.is_infinity:
            return Point(None, None, self.params)
        result = scalar_mul(self.x, self.y, k, self.params.q, window_bits)
        return Point._from_affine(result, self.params)

    def comb_table(self) -> FixedBaseTable:
        """A new comb table for this base, as wide as ``r`` plus one digit
        (what a :class:`~repro.crypto.comb.TableCache` builds): its doubling
        chain, the rest filled as scalars ask for it."""
        record_op("g1_exp.fb_build")
        return FixedBaseTable(self, self.params.r.bit_length() + WINDOW)

    @classmethod
    def _from_affine(cls, entry: tuple | None, params: TypeAParams) -> "Point":
        """Wrap one :func:`jacobian.normalise` result (``None`` = infinity)."""
        if entry is None:
            return cls(None, None, params)
        return cls(entry[0], entry[1], params, check=False)

    # -- serialization -------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Uncompressed fixed-width encoding: tag byte then ``x || y``.

        Tag ``0x00`` marks infinity (coordinates zeroed), ``0x04`` a finite
        point — mirroring SEC1 framing so sizes are realistic.
        """
        width = self.params.q_bytes
        if self.is_infinity:
            return b"\x00" + b"\x00" * (2 * width)
        return b"\x04" + self.x.to_bytes(width, "big") + self.y.to_bytes(width, "big")

    @classmethod
    def from_bytes(cls, data: bytes, params: TypeAParams) -> "Point":
        width = params.q_bytes
        if len(data) != 1 + 2 * width:
            raise SerializationError(f"point encoding must be {1 + 2 * width} bytes, got {len(data)}")
        tag = data[0]
        x = int.from_bytes(data[1 : 1 + width], "big")
        y = int.from_bytes(data[1 + width :], "big")
        if tag == 0x00 and x == y == 0:
            return cls(None, None, params)
        if tag != 0x04 or x >= params.q or y >= params.q:  # one encoding a point
            raise SerializationError(f"not a canonical point encoding (tag {tag:#x})")
        return cls(x, y, params)  # membership check on by default


def hash_to_point(label: bytes, params: TypeAParams) -> Point:
    """Hash an arbitrary byte string into G1 (try-and-increment + cofactor).

    Counter-mode SHA-256 produces candidate x-coordinates until one lies on
    the curve; the lifted point is multiplied by the cofactor ``h`` to land
    in the order-``r`` subgroup.  The even/odd bit of the digest picks the
    y-root so the map is not biased toward one half-plane.
    """
    q = params.q
    counter = 0
    while True:
        digest = hashlib.sha256(b"repro:h2p:" + counter.to_bytes(4, "big") + label).digest()
        # Widen past q's size with a second block so the candidate is ~uniform.
        digest2 = hashlib.sha256(b"repro:h2p2:" + counter.to_bytes(4, "big") + label).digest()
        x = int.from_bytes(digest + digest2, "big") % q
        rhs = (x * x * x + x) % q
        if rhs != 0 and fq_is_square(rhs, q):
            y = fq_sqrt(rhs, q)
            if digest[0] & 1:
                y = q - y
            point = Point(x, y, params, check=False) * params.h
            if not point.is_infinity:
                return point
        counter += 1
