"""The precomputation layer: one façade over both crypto caches.

The ladders and Miller loops underneath are inversion-free on their own
(:mod:`repro.crypto.jacobian`); two independent precomputations amortise
what is left — doublings, and the point arithmetic of a fixed pairing
argument.  The mechanics live next to the arithmetic they accelerate, and
this module is the policy/observation surface over both:

* **Fixed-base comb tables** (:mod:`repro.crypto.curve`) — the group
  generator ``g`` and the HVE/CP-ABE public-key bases are multiplied by
  fresh scalars on every setup, encrypt and token-gen call.  Tables are
  keyed by base, auto-promoted after a base's second large scalar
  multiplication, and LRU-bounded.  ~5x per scalar multiplication at TOY
  parameters.

* **Miller-loop line precomputation** (:mod:`repro.crypto.pairing`) — a
  pairing argument reused across many pairings (an HVE subscription token
  *or a CP-ABE secret key*, paired against a stream of ciphertexts) pays
  its line-function setup — the whole walk of ``T`` — once.  ~4x per
  token×ciphertext evaluation at TOY parameters; see
  ``benchmarks/bench_match_fanout.py``.  The lines themselves are kept by
  their consumers, per instance and LRU-bounded (``HVE._token_pre``,
  ``CPABE._key_lines``): they are token / key material.

The comb tables are process-global (workers of a
:class:`repro.par.MatchPool` each warm their own copy) and both paths are
bit-identical to the naive ones — enforced by
``tests/par/test_equivalence.py`` and the golden vectors in
``tests/crypto/vectors/``.
"""

from __future__ import annotations

from .curve import FixedBaseTable, Point, clear_fixed_base_cache, fixed_base_table
from .pairing import MillerPrecomputed, precompute_miller

__all__ = [
    "FixedBaseTable",
    "MillerPrecomputed",
    "fixed_base_table",
    "precompute_miller",
    "warm_fixed_base",
    "warm_generator",
    "clear_caches",
]


def warm_fixed_base(points) -> int:
    """Eagerly build comb tables for every finite point in ``points``.

    Returns the number of tables now live for them.  Idempotent — already
    warmed bases are a dictionary hit.
    """
    count = 0
    for point in points:
        if isinstance(point, Point) and not point.is_infinity:
            fixed_base_table(point)
            count += 1
    return count


def warm_generator(group) -> None:
    """Warm the fixed-base table for ``group``'s generator.

    Token-gen-heavy services (the PBE-TS) call this at construction so
    even their first request takes the fast path.
    """
    fixed_base_table(group.generator)


def clear_caches() -> None:
    """Drop every precomputation cache (test isolation)."""
    clear_fixed_base_cache()
