"""Calibration: measure the model constants from *our* primitives.

The paper feeds its analytic models "parameter values obtained from the
current prototype".  This module does the same against this repository's
own crypto: it times PBE encrypt/match/token-gen, CP-ABE encrypt/decrypt
and PKE operations, and takes exact ciphertext sizes from the real
serializers.  Every constant is a warm figure — a key's comb tables
serve every multiplication and a token's, respectively a secret key's,
Miller lines are cached, as they are for every publication after the
first few — and the first-use costs are the separate ``*_cold_s`` fields.
The results plug into :class:`~repro.perf.params.ModelParams` (for the
analytic models).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from ..abe.hybrid import HybridCPABE
from ..abe.serialize import serialize_hybrid
from ..crypto.group import PairingGroup
from ..crypto.pairing import tate_pairing_precomputed
from ..crypto.pke import PKEKeyPair
from ..pbe.hve import HVE
from ..pbe.serialize import serialize_hve_ciphertext, serialize_hve_token
from .params import ModelParams

__all__ = ["CalibrationResult", "calibrate"]


@dataclass(frozen=True)
class CalibrationResult:
    """Measured constants for one parameter set / metadata-space shape."""

    param_set: str
    vector_bits: int
    policy_attributes: int
    pairing_s: float
    pbe_encrypt_s: float
    pbe_match_s: float
    pbe_token_gen_s: float
    cpabe_encrypt_s: float
    cpabe_decrypt_s: float
    pke_op_s: float
    encrypted_metadata_bytes: int
    cpabe_overhead_bytes: int
    token_bytes: int
    # First query of a token against a ciphertext: includes the token's
    # Miller-loop precomputation (amortized away on every later query —
    # pbe_match_s is that warm steady-state cost).
    pbe_match_cold_s: float = 0.0
    # First encryption under a public key: each of its 2n bases starts its
    # comb table (a key's own bases are promoted on first use), about one
    # and a half ladders a base (repro.crypto.curve, "Fixed-base").
    pbe_encrypt_cold_s: float = 0.0

    def as_model_params(self, base: ModelParams | None = None) -> ModelParams:
        """Table 1 with our measured values substituted."""
        base = base or ModelParams()
        return base.with_(
            pbe_encrypt_s=self.pbe_encrypt_s,
            pbe_match_s=self.pbe_match_s,
            cpabe_encrypt_s=self.cpabe_encrypt_s,
            cpabe_decrypt_s=self.cpabe_decrypt_s,
            encrypted_metadata_bytes=self.encrypted_metadata_bytes,
        )


def _time(fn, repetitions: int) -> float:
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# A shared base earns its comb table on its third large multiplication (a
# key's own base on its first, ``crypto.comb``), and a token or secret key
# caches its Miller lines on first use: after this many calls on fresh keys
# an operation is at the cost every later call pays.
_WARM_CALLS = 3


def _time_warm(fn, repetitions: int) -> float:
    """Best-of-``repetitions`` of ``fn`` at steady state: the one-time
    table builds and precomputations are paid before the clock starts."""
    for _ in range(_WARM_CALLS):
        fn()
    return _time(fn, repetitions)


# the payload the CP-ABE timings and overhead are measured on
CALIBRATION_PAYLOAD_BYTES = 1024


def calibrate(
    param_set: str = "TOY",
    vector_bits: int = 40,
    policy_attributes: int = 10,
    repetitions: int = 3,
) -> CalibrationResult:
    """Measure every model constant at the given parameter set.

    ``vector_bits`` is the PBE vector length (Table 1: P = 40 bits);
    ``policy_attributes`` is V.  Uses best-of-``repetitions`` to damp
    scheduling noise, on keys that are already warm (:func:`_time_warm`).
    """
    group = PairingGroup(param_set)

    # pairing: a served one evaluates a token's or a key's cached lines
    p1, p2 = group.random_g1(), group.random_g1()
    lines = group.precompute_pairing(p1)
    pairing_s = _time_warm(lambda: tate_pairing_precomputed(lines, p2), repetitions)

    # PBE / HVE
    hve = HVE(group)
    hve_public, hve_master = hve.setup(vector_bits)
    attribute_vector = [i % 2 for i in range(vector_bits)]
    interest_vector: list[int | None] = [
        (i % 2 if i < vector_bits // 2 else None) for i in range(vector_bits)
    ]
    guid = b"\x42" * 16

    def _pbe_encrypt():
        return hve.encrypt(hve_public, attribute_vector, guid)

    pbe_encrypt_cold_s = _time(_pbe_encrypt, 1)  # the key's first use, once
    pbe_encrypt_s = _time_warm(_pbe_encrypt, repetitions)
    ciphertext = _pbe_encrypt()
    pbe_token_gen_s = _time_warm(
        lambda: hve.gen_token(hve_master, interest_vector), repetitions
    )
    token = hve.gen_token(hve_master, interest_vector)

    def _match_cold():
        HVE(group).query(replace(token), ciphertext)  # a copy starts with no lines

    pbe_match_s = _time_warm(lambda: hve.query(token, ciphertext), repetitions)
    pbe_match_cold_s = _time(_match_cold, repetitions)
    encrypted_metadata_bytes = len(serialize_hve_ciphertext(group, ciphertext))

    # CP-ABE (V-attribute AND policy — the Table 1 shape)
    cpabe = HybridCPABE(group)
    cpabe_public, cpabe_master = cpabe.setup()
    attributes = {f"a{i}" for i in range(policy_attributes)}
    policy = " and ".join(sorted(attributes))
    key = cpabe.keygen(cpabe_master, attributes)
    payload = b"\x07" * CALIBRATION_PAYLOAD_BYTES
    cpabe_encrypt_s = _time_warm(
        lambda: cpabe.encrypt(cpabe_public, payload, policy), repetitions
    )
    abe_ciphertext = cpabe.encrypt(cpabe_public, payload, policy)
    cpabe_decrypt_s = _time_warm(lambda: cpabe.decrypt(key, abe_ciphertext), repetitions)
    cpabe_overhead_bytes = len(serialize_hybrid(group, abe_ciphertext)) - len(payload)

    # PKE
    pke = PKEKeyPair(group)
    pke_op_s = _time_warm(lambda: pke.public.encrypt(b"x" * 64), repetitions)

    return CalibrationResult(
        param_set=param_set,
        vector_bits=vector_bits,
        policy_attributes=policy_attributes,
        pairing_s=pairing_s,
        pbe_encrypt_s=pbe_encrypt_s,
        pbe_match_s=pbe_match_s,
        pbe_token_gen_s=pbe_token_gen_s,
        cpabe_encrypt_s=cpabe_encrypt_s,
        cpabe_decrypt_s=cpabe_decrypt_s,
        pke_op_s=pke_op_s,
        encrypted_metadata_bytes=encrypted_metadata_bytes,
        cpabe_overhead_bytes=cpabe_overhead_bytes,
        token_bytes=len(serialize_hve_token(group, token)),
        pbe_match_cold_s=pbe_match_cold_s,
        pbe_encrypt_cold_s=pbe_encrypt_cold_s,
    )
