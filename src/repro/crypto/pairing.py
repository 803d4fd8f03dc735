"""Modified Tate pairing on Type-A curves (Miller's algorithm).

For the supersingular curve ``E : y² = x³ + x / F_q`` with ``q ≡ 3 (mod 4)``
the distortion map ``ψ(x, y) = (−x, i·y)`` sends ``E(F_q)`` into
``E(F_q²) \\ E(F_q)``, giving the *symmetric* ("Type-1") pairing

    ê(P, Q) = f_{r,P}(ψ(Q)) ^ ((q² − 1) / r),   ê : G1 × G1 → GT ⊂ F_q².

Three standard optimisations for even embedding degree are used:

* **Denominator elimination** — vertical-line values lie in the subfield
  ``F_q`` and are annihilated by the final exponentiation (which contains
  the factor ``q − 1``), so Miller's loop skips them entirely.
* **Cheap line evaluation** — a line through points of ``E(F_q)`` with
  slope ``λ``, evaluated at ``ψ(Q) = (−x_Q, i·y_Q)``, equals
  ``(λ·(x_Q + x_T) − y_T) + i·y_Q`` — its real part needs only ``F_q``
  arithmetic and its imaginary part is constant across the whole loop.
* **Inversion-free steps** — the plain loop carries ``T`` in Jacobian
  coordinates (:mod:`repro.crypto.jacobian`), whose steps hand back the
  slope as a fraction ``N / Z₃``; each line is multiplied through by its
  denominator, a factor in ``F_q*`` that the final exponentiation kills
  for the same reason.  A raw Miller value is therefore defined only up to
  ``F_q*``; :func:`precompute_miller` divides the slopes out in one batch
  and stores plain affine lines.

:func:`multi_pairing` computes ``Π ê(P_j, Q_j)`` sharing the accumulator
squaring and the final exponentiation across all pairs — the dominant cost
of HVE matching, where products of 2·(non-wildcard positions) pairings are
evaluated (see DESIGN.md §5 for the ablation bench).
"""

from __future__ import annotations

from ..errors import ParameterError
from ..obs.hooks import record_op
from .curve import Point
from .field import Fq2, fq_inv
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


def _miller_product(pairs: list[tuple[Point, Point]], params: TypeAParams) -> Fq2:
    """``Π_j f_{r,P_j}(ψ(Q_j))`` over finite pairs, up to a factor in ``F_q*``.

    Identity: ``Π_j f_j² · l_j = (Π_j f_j)² · Π_j l_j``, so a single
    ``F_q²`` accumulator (raw ints) serves every pair: per Miller step one
    squaring in total plus one line multiplication per pair.
    """
    q = params.q
    # [X, Y, Z, xp, yp, xq, yq] per pair: the running point T, then constants
    live = [[p.x, p.y, 1, p.x, p.y, qp.x, qp.y] for p, qp in pairs]
    f_a, f_b = 1, 0
    for bit in bin(params.r)[3:]:  # MSB-first, skipping the leading 1
        f_a, f_b = (f_a + f_b) * (f_a - f_b) % q, 2 * f_a * f_b % q
        for state in live:
            X, Y, Z, xp, yp, xq, yq = state
            if not Z:
                continue  # T = O: no more lines from this pair
            # f <- f · l_{T,T}(ψQ), the tangent scaled by Z3·Z²;  T <- 2T
            X3, Y3, Z3, M, YY, ZZ = double(X, Y, Z, q)
            line_a = (M * (xq * ZZ % q + X) - 2 * YY) % q
            line_b = yq * (Z3 * ZZ % q) % q
            f_a, f_b = (f_a * line_a - f_b * line_b) % q, (f_a * line_b + f_b * line_a) % q
            if bit == "1" and Z3:
                # f <- f · l_{T,P}(ψQ), the chord through P scaled by Z3;  T <- T + P
                X3, Y3, Z3, R = add_affine(X3, Y3, Z3, xp, yp, q)
                if Z3:  # else T = −P: vertical line, eliminated like the denominators
                    line_a = (R * (xq + xp) - yp * Z3) % q
                    line_b = yq * Z3 % q
                    f_a, f_b = (f_a * line_a - f_b * line_b) % q, (f_a * line_b + f_b * line_a) % q
            state[0], state[1], state[2] = X3, Y3, Z3
    return Fq2(f_a, f_b, q)


def miller_loop(p: Point, q_point: Point) -> Fq2:
    """Evaluate ``f_{r,P}(ψ(Q))`` without the final exponentiation.

    Both inputs must be finite points of ``E(F_q)``.  The result is only
    meaningful after :func:`final_exponentiation` (before it, it is one
    representative of a coset of ``F_q*``).
    """
    if p.is_infinity or q_point.is_infinity:
        raise ParameterError("miller_loop requires finite points")
    return _miller_product([(p, q_point)], p.params)


def final_exponentiation(f: Fq2, params: TypeAParams) -> Fq2:
    """Raise the Miller value to ``(q² − 1)/r``.

    Split as ``(q − 1) · (q + 1)/r``.  The first factor is the cheap
    Frobenius step ``u = f̄ / f`` (conjugation is ``f^q`` in ``F_q²``), and
    ``u`` has norm 1, so ``u^h`` for ``h = (q + 1)/r`` comes from the Lucas
    sequence ``V_k = u^k + ū^k`` over raw ints — ``V_{2k} = V_k² − 2``,
    ``V_{2k+1} = V_k·V_{k+1} − P`` with ``P = V_1 = 2·Re(u)`` — at one
    squaring and one multiplication per exponent bit:

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
    v0, v1 = trace, (trace * trace - 2) % q  # (V_1, V_2): the leading bit of h
    for bit in bin((q + 1) // params.r)[3:]:
        if bit == "1":
            v0, v1 = (v0 * v1 - trace) % q, (v1 * v1 - 2) % q
        else:
            v0, v1 = (v0 * v0 - 2) % q, (v0 * v1 - trace) % q
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
    return final_exponentiation(miller_loop(p, q_point), params)


class MillerPrecomputed:
    """Precomputed line functions of ``f_{r,P}`` for a fixed first argument.

    Per Miller-loop bit this stores the ``(λ, x_T, y_T)`` triple of the
    doubling line and, on set bits, of the addition line (``None`` once
    ``T`` reaches infinity) — plain affine lines, their slopes divided out
    with one batched inversion.  Evaluating the pairing against any second
    argument then needs no point arithmetic at all: one accumulator
    squaring and one short line multiplication per step.

    This is the classic "fixed-argument pairing" optimisation (Scott,
    "Computing the Tate pairing", CT-RSA'05 §5): an HVE subscription token
    reused against N ciphertexts pays its line-function setup once.
    """

    __slots__ = ("params", "steps")

    def __init__(self, params: TypeAParams, steps: list[tuple[tuple[int, int, int] | None, tuple[int, int, int] | None]]):
        self.params = params
        self.steps = steps


def precompute_miller(p: Point) -> MillerPrecomputed:
    """Walk Miller's loop for ``P`` once, recording every line coefficient."""
    params = p.params
    if p.is_infinity:
        raise ParameterError("precompute_miller requires a finite point")
    record_op("pairing.precompute")
    q = params.q
    xp, yp = p.x, p.y
    # Line k is drawn at chain[k] and lands on chain[k+1]; its slope is
    # numerators[k] / Z(chain[k+1]).  A step that lands on infinity drew a
    # vertical line (denominator-eliminated) and ends the walk.
    chain = [(xp, yp, 1)]
    numerators: list[int] = []
    shape: list[list[int | None]] = []  # per bit: index of its doubling and addition line
    for bit in bin(params.r)[3:]:
        drawn: list[int | None] = [None, None]
        for slot in range(1 + (bit == "1")):
            X, Y, Z = chain[-1]
            if not Z:
                break
            X, Y, Z, numer = add_affine(X, Y, Z, xp, yp, q) if slot else double(X, Y, Z, q)[:4]
            chain.append((X, Y, Z))
            if Z:
                drawn[slot] = len(numerators)
                numerators.append(numer)
        shape.append(drawn)
    points = normalise(chain, q)  # one inversion for every slope and base point
    lines = [
        (numer * points[k + 1][2] % q, points[k][0], points[k][1])
        for k, numer in enumerate(numerators)
    ]
    steps = [tuple(None if k is None else lines[k] for k in drawn) for drawn in shape]
    return MillerPrecomputed(params, steps)


def miller_eval(pre: MillerPrecomputed, q_point: Point) -> Fq2:
    """``f_{r,P}(ψ(Q))`` from precomputed lines — :func:`miller_loop` of the
    original point up to a factor in ``F_q*``, with no point arithmetic."""
    if q_point.is_infinity:
        raise ParameterError("miller_eval requires a finite point")
    q = pre.params.q
    xq, yq = q_point.x, q_point.y
    f_a, f_b = 1, 0
    for dbl, add in pre.steps:
        sq_a = (f_a + f_b) * (f_a - f_b) % q
        sq_b = 2 * f_a * f_b % q
        f_a, f_b = sq_a, sq_b
        if dbl is not None:
            lam, xt, yt = dbl
            line_a = (lam * (xq + xt) - yt) % q
            new_a = (f_a * line_a - f_b * yq) % q
            f_b = (f_a * yq + f_b * line_a) % q
            f_a = new_a
        if add is not None:
            lam, xt, yt = add
            line_a = (lam * (xq + xt) - yt) % q
            new_a = (f_a * line_a - f_b * yq) % q
            f_b = (f_a * yq + f_b * line_a) % q
            f_a = new_a
    return Fq2(f_a, f_b, q)


def tate_pairing_precomputed(pre: MillerPrecomputed, q_point: Point) -> Fq2:
    """``ê(P, Q)`` with ``P``'s Miller lines precomputed.

    Bit-identical to ``tate_pairing(P, Q)``: the two Miller values differ
    by a factor in ``F_q*``, which the final exponentiation kills.
    """
    if q_point.is_infinity:
        return Fq2.one(pre.params.q)
    record_op("pairing")
    return final_exponentiation(miller_eval(pre, q_point), pre.params)


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
    live: list[tuple[list, int, int]] = []  # (steps, xq, yq)
    for pre, q_point in entries:
        if pre is None or q_point.is_infinity:
            continue
        if pre.params.q != q or q_point.params.q != q:
            raise ParameterError("multi_pairing_precomputed arguments use mismatched parameters")
        live.append((pre.steps, q_point.x, q_point.y))
    if not live:
        return Fq2.one(q)
    record_op("pairing", len(live))
    record_op("multi_pairing")
    record_op("multi_pairing.precomputed")

    f_a, f_b = 1, 0
    num_bits = len(bin(params.r)) - 3
    for i in range(num_bits):
        sq_a = (f_a + f_b) * (f_a - f_b) % q
        sq_b = 2 * f_a * f_b % q
        f_a, f_b = sq_a, sq_b
        for steps, xq, yq in live:
            dbl, add = steps[i]
            if dbl is not None:
                lam, xt, yt = dbl
                line_a = (lam * (xq + xt) - yt) % q
                new_a = (f_a * line_a - f_b * yq) % q
                f_b = (f_a * yq + f_b * line_a) % q
                f_a = new_a
            if add is not None:
                lam, xt, yt = add
                line_a = (lam * (xq + xt) - yt) % q
                new_a = (f_a * line_a - f_b * yq) % q
                f_b = (f_a * yq + f_b * line_a) % q
                f_a = new_a

    return final_exponentiation(Fq2(f_a, f_b, q), params)


def multi_pairing(pairs: list[tuple[Point, Point]], params: TypeAParams) -> Fq2:
    """Compute ``Π_j ê(P_j, Q_j)`` with shared squaring and one final exp.

    Every pair shares one Miller accumulator (:func:`_miller_product`) and
    the expensive final exponentiation is paid once in total.
    """
    q = params.q
    live = []
    for p, qp in pairs:
        if p.params.q != q or qp.params.q != q:
            raise ParameterError("multi_pairing arguments use mismatched parameters")
        if not (p.is_infinity or qp.is_infinity):  # else: contributes the identity
            live.append((p, qp))
    if not live:
        return Fq2.one(q)
    record_op("pairing", len(live))
    record_op("multi_pairing")
    return final_exponentiation(_miller_product(live, params), params)
