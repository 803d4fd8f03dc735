"""The precomputation layer: one façade over both crypto caches.

No ladder or Miller loop underneath inverts per step
(:mod:`repro.crypto.jacobian`); two independent precomputations amortise
what is left — doublings and squarings, and the point arithmetic of a
fixed pairing argument.  The mechanics live next to the arithmetic they
accelerate, and this module is the policy/observation surface over both:

* **Signed-digit comb tables** (:mod:`repro.crypto.comb`) — the group
  generator ``g`` and the HVE/CP-ABE public-key bases are multiplied by
  fresh scalars on every setup, encrypt and token-gen call, and the GT
  bases ``Y``, ``ê(g,g)^α`` and ``ê(g,g)`` are raised to fresh powers.
  A table stores ``d · 32^j`` times its base for ``d = 1…16``; a scalar's
  signed radix-32 digits ``d ∈ [−15, 16]`` then cost one group operation
  each (a negative digit is a negated point, or a conjugated GT element).
  Tables are keyed by base and auto-promoted on a shared base's third
  large use, and on an HVE key's own base's first.
  One G1 multiplication walks its table (:class:`repro.crypto.curve.
  FixedBaseTable`) in Jacobian form; a batch (``curve.mul_many``) and a
  table's build, affine in lock-step.  A GT table
  (:class:`repro.crypto.field.PowerTable`) grows a row at a time.

* **Miller-loop line precomputation** (:mod:`repro.crypto.pairing`) — a
  pairing argument reused across many pairings (an HVE subscription token
  *or a CP-ABE secret key*, paired against a stream of ciphertexts) pays
  its line-function setup — the whole walk of ``T`` — once.  ~4x per
  token×ciphertext evaluation at TOY parameters; see
  ``benchmarks/bench_match_fanout.py``.  The lines themselves are token /
  key material: a token owns its own (``HVEToken.lines``), and a client's
  ``CPABE`` keeps its keys' in an LRU (``CPABE._key_lines``).

A comb table lives with whoever owns its base.  An ``HVEPublicKey``
carries the tables of its own 2·Σ|Σ_i| points (``HVEPublicKey.tables``;
4n for a binary key): key material like the lines above — that many at
most, freed with the key, never serialized; 16 entries a row, 34 rows at
``PAPER``.  Every other base
(``g``, CP-ABE, PKE and signing keys, the GT bases: a dozen or so on any
workload) is served by value from one process-global, LRU-bounded cache
(each worker process of a :class:`repro.par.MatchPool` warms its own copy).
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
