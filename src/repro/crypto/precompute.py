"""The precomputation layer: one façade over both crypto caches.

No ladder or Miller loop underneath inverts per step
(:mod:`repro.crypto.jacobian`); two independent precomputations amortise
what is left — doublings and squarings, and the point arithmetic of a
fixed pairing argument.  The mechanics live next to the arithmetic they
accelerate, and this module is the policy/observation surface over both:

* **Signed-digit comb tables** (:mod:`repro.crypto.comb`, which says
  which bases earn one and who keeps it) — one group operation per signed
  radix-32 digit of a fresh scalar, on the generator ``g``, the HVE and
  CP-ABE key points and the GT bases (``Y``, ``ê(g,g)^α``, ``ê(g,g)``, a
  server's PKE key).  One G1 multiplication walks its table in Jacobian
  form; a batch (``curve.mul_many``), affine in lock-step.

* **Miller-loop line precomputation** (:mod:`repro.crypto.pairing`) — a
  pairing argument reused across many pairings (an HVE subscription token
  *or a CP-ABE secret key*, paired against a stream of ciphertexts) pays
  its line-function setup — the whole walk of ``T`` — once.  ~4x per
  token×ciphertext evaluation at TOY parameters; see
  ``benchmarks/bench_match_fanout.py``.  The lines themselves are token /
  key material: a token owns its own (``HVEToken.lines``), and a CP-ABE
  secret key its own (``CPABESecretKey.lines``).

Both precomputed paths are bit-identical to the naive ones — enforced by
``tests/par/test_equivalence.py`` and the golden vectors in
``tests/crypto/vectors/``.
"""

from __future__ import annotations

from .comb import shared_tables
from .curve import FixedBaseTable, fixed_base_table
from .pairing import MillerPrecomputed, precompute_miller

__all__ = [
    "FixedBaseTable",
    "MillerPrecomputed",
    "fixed_base_table",
    "precompute_miller",
    "warm_generator",
    "clear_caches",
]


def warm_generator(group) -> None:
    """Warm the fixed-base table for ``group``'s generator.

    Token-gen-heavy services (the PBE-TS) call this at construction so
    even their first request takes the fast path.
    """
    fixed_base_table(group.generator)


def clear_caches() -> None:
    """Drop every process-global precomputation cache — the shared G1 and GT
    comb tables and their promotion counts (test isolation; a harness's
    "new process").  Tables a key owns go when the key does."""
    shared_tables.clear()
