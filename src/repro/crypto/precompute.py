"""The precomputation layer: one façade over both crypto caches.

No ladder or Miller loop underneath inverts per step
(:mod:`repro.crypto.jacobian`); two independent precomputations amortise
what is left — doublings, and the point arithmetic of a fixed pairing
argument.  The mechanics live next to the arithmetic they accelerate, and
this module is the policy/observation surface over both:

* **Fixed-base comb tables** (:mod:`repro.crypto.curve`) — the group
  generator ``g`` and the HVE/CP-ABE public-key bases are multiplied by
  fresh scalars on every setup, encrypt and token-gen call.  Tables are
  keyed by base and auto-promoted on a base's third large scalar
  multiplication.  ~5x per scalar multiplication at TOY parameters.  One
  multiplication walks its table in Jacobian form; a batch
  (``curve.mul_many``) and a table's build, affine in lock-step.

* **Miller-loop line precomputation** (:mod:`repro.crypto.pairing`) — a
  pairing argument reused across many pairings (an HVE subscription token
  *or a CP-ABE secret key*, paired against a stream of ciphertexts) pays
  its line-function setup — the whole walk of ``T`` — once.  ~4x per
  token×ciphertext evaluation at TOY parameters; see
  ``benchmarks/bench_match_fanout.py``.  The lines themselves are kept by
  their consumers, per instance and LRU-bounded (``HVE._token_pre``,
  ``CPABE._key_lines``): they are token / key material.

A comb table lives with whoever owns its base.  An ``HVEPublicKey``
carries the tables of its own 4n bases (``HVEPublicKey.tables``): key
material like the lines above — 4n at most, freed with the key, never
serialized; ≈ 42 KB a table at ``TOY``, ≈ 160 KB at ``PAPER``.  Every other
base (``g``, CP-ABE, PKE and signing keys: 6–13 on any workload) is served
by value from one process-global, LRU-bounded cache (workers of a
:class:`repro.par.MatchPool` each warm their own copy).  Both precomputed
paths are bit-identical to the naive ones — enforced by
``tests/par/test_equivalence.py`` and the golden vectors in
``tests/crypto/vectors/``.
"""

from __future__ import annotations

from .curve import FixedBaseTable, clear_fixed_base_cache, fixed_base_table
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
    """Drop every process-global precomputation cache (test isolation; a
    harness's "new process").  Tables a key owns go when the key does."""
    clear_fixed_base_cache()
