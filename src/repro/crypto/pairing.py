"""Modified Tate pairing on Type-A curves (Miller's algorithm).

For the supersingular curve ``E : y² = x³ + x / F_q`` with ``q ≡ 3 (mod 4)``
the distortion map ``ψ(x, y) = (−x, i·y)`` sends ``E(F_q)`` into
``E(F_q²) \\ E(F_q)``, giving the *symmetric* ("Type-1") pairing

    ê(P, Q) = f_{r,P}(ψ(Q)) ^ ((q² − 1) / r),   ê : G1 × G1 → GT ⊂ F_q².

Four standard optimisations for even embedding degree are used:

* **Denominator elimination** — vertical-line values lie in the subfield
  ``F_q`` and are annihilated by the final exponentiation (which contains
  the factor ``q − 1``), so Miller's loop skips them entirely.
* **Monic lines** — a line through points of ``E(F_q)`` with slope ``λ``,
  evaluated at ``ψ(Q) = (−x_Q, i·y_Q)``, equals
  ``(λ·x_Q + c) + i·y_Q`` with ``c = λ·x_T − y_T``.  Divided by ``y_Q`` —
  another factor in ``F_q*`` — it is ``a + i`` with
  ``a = λ·(x_Q/y_Q) + c·(1/y_Q)``, and ``f·(a + i) = (f_a·a − f_b) +
  i·(f_a + f_b·a)``: four multiplications a line.  A precomputed line is
  the pair ``(λ, c)``; one batched inversion gives every pair's ``1/y_Q``.
  The 2-torsion point ``(0, 0)`` has no ``1/y_Q``, and it needs none: all
  its line values lie in ``F_q``, so a pair with it contributes the
  identity.
* **A signed-digit walk** — the walk reads ``r``'s non-adjacent form
  (:func:`_naf_digits`); a −1 digit draws the chord through ``−P``, whose
  extra vertical line is eliminated like the others.  ``PAPER``'s order,
  PBC's Solinas prime ``2^159 + 2^107 + 1``, has two non-zero digits: its
  walk draws 160 lines (159 tangents, one chord; the last is vertical).
* **One walk, then lines** — every pairing, served or not, evaluates
  lines: :func:`_lines` walks ``T`` once in Jacobian coordinates
  (:mod:`repro.crypto.jacobian`) and divides every slope out with one
  batched inversion, and :func:`_line_product` is the one evaluation
  loop.  :func:`precompute_miller` keeps a point's lines for reuse (an
  HVE token's, a CP-ABE key's); :func:`miller_loop`,
  :func:`tate_pairing` and :func:`multi_pairing` draw them afresh and
  drop them.

:func:`multi_pairing` computes ``Π ê(P_j, Q_j)`` sharing the accumulator
squaring and the final exponentiation across all pairs — the dominant cost
of HVE matching, where products of 2·(non-wildcard positions) pairings are
evaluated (see DESIGN.md §5 for the ablation bench).
"""

from __future__ import annotations

import functools

from ..errors import ParameterError
from ..obs.hooks import record_op
from .curve import Point
from .field import Fq2, fq_batch_inv, fq_inv, lucas_ladder
from .jacobian import add_affine, double, normalise
from .params import TypeAParams

__all__ = [
    "tate_pairing",
    "multi_pairing",
    "final_exponentiation",
    "miller_loop",
    "MillerPrecomputed",
    "precompute_miller",
    "miller_eval",
    "tate_pairing_precomputed",
    "multi_pairing_precomputed",
]


@functools.lru_cache(maxsize=8)
def _naf_digits(r: int) -> tuple[int, ...]:
    """``r``'s non-adjacent form, most significant digit first, without its
    leading 1: the digit string Miller's walk reads."""
    digits = []
    while r:
        digit = 2 - (r & 3) if r & 1 else 0
        digits.append(digit)
        r = (r - digit) >> 1
    return tuple(reversed(digits[:-1]))


def miller_loop(p: Point, q_point: Point) -> Fq2:
    """Evaluate ``f_{r,P}(ψ(Q))`` without the final exponentiation.

    Both inputs must be finite points of ``E(F_q)``.  The result is only
    meaningful after :func:`final_exponentiation` (before it, it is one
    representative of a coset of ``F_q*``).
    """
    if p.is_infinity or q_point.is_infinity:
        raise ParameterError("miller_loop requires finite points")
    return _line_product([(_lines(p), q_point)], p.params)


def final_exponentiation(f: Fq2, params: TypeAParams) -> Fq2:
    """Raise the Miller value to ``(q² − 1)/r``.

    Split as ``(q − 1) · (q + 1)/r``.  The first factor is the cheap
    Frobenius step ``u = f̄ / f`` (conjugation is ``f^q`` in ``F_q²``), and
    ``u`` has norm 1, so ``u^h``, ``h = (q + 1)/r``, comes from the Lucas
    sequence ``V_k`` of ``P = V_1 = 2·Re(u)`` (:func:`~repro.crypto.field.lucas_ladder`):

        Re(u^h) = V_h / 2,    Im(u^h) = (P·V_h − 2·V_{h+1}) / (4·Im(u)).

    With ``f = a + bi`` and ``n = a² + b²``, ``Im(u) = −2ab/n``; the single
    inversion ``w = 1/(8ab·n)`` yields both ``1/n`` and ``1/(4·Im(u))``.
    """
    record_op("final_exp")
    q = params.q
    a, b = f.a, f.b
    if not a or not b:
        if not (a or b):
            raise ZeroDivisionError("final exponentiation of zero in F_q2")
        # f real or purely imaginary: u = f̄/f = ±1, and h is even (4 | q + 1)
        return Fq2.one(q)
    norm = (a * a + b * b) % q
    ab8 = 8 * a * b % q
    w = fq_inv(norm * ab8 % q, q)
    trace = 2 * (a + b) * (a - b) * (w * ab8 % q) % q  # P = 2·Re(u) = 2(a² − b²)/n
    inv_4im = -norm * norm * w % q  # 1/(4·Im u) = −n/(8ab)
    v0, v1 = lucas_ladder(trace, (q + 1) // params.r, q)
    return Fq2(v0 * ((q + 1) >> 1), (trace * v0 - 2 * v1) * inv_4im, q)


def tate_pairing(p: Point, q_point: Point) -> Fq2:
    """The modified Tate pairing ``ê(P, Q)`` for ``P, Q ∈ G1``.

    Returns the identity of GT when either argument is the point at
    infinity (the bilinear extension to the full group).
    """
    params = p.params
    if p.is_infinity or q_point.is_infinity:
        return Fq2.one(params.q)
    record_op("pairing")
    return final_exponentiation(_line_product([(_lines(p), q_point)], params), params)


class MillerPrecomputed:
    """Precomputed line functions of ``f_{r,P}`` for a fixed first argument.

    ``steps`` holds one tuple per digit of ``r``'s non-adjacent form: the
    ``(λ, c)`` of its doubling line and, on a non-zero digit, of its
    addition line (empty once ``T`` reaches infinity) — plain affine lines,
    their slopes divided out with one batched inversion.  A line is two
    integers below ``q`` because its value at ``ψ(Q)``, divided by ``y_Q``,
    is the monic ``λ·(x_Q/y_Q) + c·(1/y_Q) + i``.  Evaluating the pairing
    against any second argument then needs no point arithmetic at all: one
    accumulator squaring a step and four multiplications a line.

    This is the classic "fixed-argument pairing" optimisation (Scott,
    "Computing the Tate pairing", CT-RSA'05 §5): an HVE subscription token
    reused against N ciphertexts pays its line-function setup once.
    """

    __slots__ = ("params", "steps")

    def __init__(self, params: TypeAParams, steps: list[tuple[tuple[int, int], ...]]):
        self.params = params
        self.steps = steps


def _lines(p: Point) -> MillerPrecomputed:
    """Walk Miller's loop for a finite ``P`` once, recording every line
    coefficient — the one walk of ``T`` in this module."""
    params = p.params
    q = params.q
    xp, yp = p.x, p.y
    # Line k is drawn at chain[k] and lands on chain[k+1]; its slope is
    # numerators[k] / Z(chain[k+1]).  A step that lands on infinity drew a
    # vertical line (denominator-eliminated) and ends the walk.
    chain = [(xp, yp, 1)]
    numerators: list[int] = []
    shape: list[list[int]] = []  # per digit: the indices of the lines it drew
    for digit in _naf_digits(params.r):
        drawn: list[int] = []
        for slot in range(1 + (digit != 0)):
            X, Y, Z = chain[-1]
            if not Z:
                break
            if slot:
                X, Y, Z, numer = add_affine(X, Y, Z, xp, yp if digit > 0 else q - yp, q)
            else:
                X, Y, Z, numer = double(X, Y, Z, q)
            chain.append((X, Y, Z))
            if Z:
                drawn.append(len(numerators))
                numerators.append(numer)
        shape.append(drawn)
    points = normalise(chain, q)  # one inversion for every slope and base point
    lines = []
    for k, numer in enumerate(numerators):
        lam = numer * points[k + 1][2] % q
        lines.append((lam, (lam * points[k][0] - points[k][1]) % q))
    return MillerPrecomputed(params, [tuple(lines[k] for k in drawn) for drawn in shape])


def precompute_miller(p: Point) -> MillerPrecomputed:
    """``P``'s Miller lines, kept by the caller for fixed-argument pairings."""
    if p.is_infinity:
        raise ParameterError("precompute_miller requires a finite point")
    record_op("pairing.precompute")
    return _lines(p)


def _line_product(entries: list[tuple[MillerPrecomputed, Point]], params: TypeAParams) -> Fq2:
    """``Π_j f_{r,P_j}(ψ(Q_j))`` from precomputed lines over finite ``Q_j``,
    up to a factor in ``F_q*`` — the one evaluation loop.

    Every line of pair ``j`` is divided by ``y_{Q_j}``, so it is monic; one
    batched inversion serves all pairs.  ``Q_j = (0, 0)`` has no inverse —
    :func:`~repro.crypto.field.fq_batch_inv` hands back 0 — and its pair
    is dropped: its line values lie in ``F_q``.
    """
    q = params.q
    live = []  # (steps, x_Q/y_Q, 1/y_Q)
    for (pre, q_point), y_inv in zip(entries, fq_batch_inv([qp.y for _, qp in entries], q)):
        if y_inv:
            live.append((pre.steps, q_point.x * y_inv % q, y_inv))
    f_a, f_b = 1, 0
    for i in range(len(_naf_digits(params.r))):
        f_a, f_b = (f_a + f_b) * (f_a - f_b) % q, 2 * f_a * f_b % q
        for steps, u, v in live:
            for lam, c in steps[i]:
                a = (lam * u + c * v) % q
                f_a, f_b = (f_a * a - f_b) % q, (f_a + f_b * a) % q
    return Fq2(f_a, f_b, q)


def miller_eval(pre: MillerPrecomputed, q_point: Point) -> Fq2:
    """``f_{r,P}(ψ(Q))`` from precomputed lines — :func:`miller_loop` of the
    original point, with no point arithmetic."""
    if q_point.is_infinity:
        raise ParameterError("miller_eval requires a finite point")
    return _line_product([(pre, q_point)], pre.params)


def tate_pairing_precomputed(pre: MillerPrecomputed, q_point: Point) -> Fq2:
    """``ê(P, Q)`` with ``P``'s Miller lines precomputed.

    Bit-identical to ``tate_pairing(P, Q)``, which draws the same lines
    and drops them.
    """
    if q_point.is_infinity:
        return Fq2.one(pre.params.q)
    record_op("pairing")
    return final_exponentiation(_line_product([(pre, q_point)], pre.params), pre.params)


def multi_pairing_precomputed(
    entries: list[tuple[MillerPrecomputed | None, Point]], params: TypeAParams
) -> Fq2:
    """``Π_j ê(P_j, Q_j)`` where every ``P_j`` carries precomputed lines.

    The accumulator squaring and the final exponentiation are shared
    exactly as in :func:`multi_pairing`; a ``None`` precomputation (the
    point at infinity) or an infinite ``Q_j`` contributes the identity,
    mirroring :func:`multi_pairing`'s skip rule.  Because the pairing is
    symmetric (all arguments live in the cyclic group G1), the product
    equals ``multi_pairing`` on the argument-swapped pairs bit for bit.
    """
    q = params.q
    live = []
    for pre, q_point in entries:
        if pre is None or q_point.is_infinity:
            continue
        if pre.params.q != q or q_point.params.q != q:
            raise ParameterError("multi_pairing_precomputed arguments use mismatched parameters")
        live.append((pre, q_point))
    if not live:
        return Fq2.one(q)
    record_op("pairing", len(live))
    record_op("multi_pairing")
    record_op("multi_pairing.precomputed")
    return final_exponentiation(_line_product(live, params), params)


def multi_pairing(pairs: list[tuple[Point, Point]], params: TypeAParams) -> Fq2:
    """Compute ``Π_j ê(P_j, Q_j)`` with shared squaring and one final exp.

    Every pair's lines share one Miller accumulator (:func:`_line_product`)
    and the expensive final exponentiation is paid once in total.
    """
    q = params.q
    live = []
    for p, qp in pairs:
        if p.params.q != q or qp.params.q != q:
            raise ParameterError("multi_pairing arguments use mismatched parameters")
        if not (p.is_infinity or qp.is_infinity):  # else: contributes the identity
            live.append((_lines(p), qp))
    if not live:
        return Fq2.one(q)
    record_op("pairing", len(live))
    record_op("multi_pairing")
    return final_exponentiation(_line_product(live, params), params)
