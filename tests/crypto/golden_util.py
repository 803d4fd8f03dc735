"""Deterministic derivation shared by the golden known-answer vectors.

The vectors in ``tests/crypto/vectors/golden_toy.json`` freeze the TOY
outputs of the Tate pairing, IP08 HVE encrypt/token/match, and BSW07
setup/keygen under fixed seeds.  Determinism needs two things:

* every Zr scalar drawn through :meth:`PairingGroup.random_zr` comes from
  a seeded ``random.Random``, and
* the SecretBox keys and nonces inside HVE ciphertexts come from a
  counter-based stream (:class:`CounterStream`),

both installed through :func:`repro.crypto.randomness.seeded`.

:func:`derive_vectors` is the single source of truth: the regen script
(``tests/crypto/vectors/make_vectors.py``) serializes its output, and
``test_golden_vectors.py`` re-runs it and compares against the committed
JSON — so any change to scalar-draw order, point arithmetic, pairing
evaluation, serialization layout, or sealing breaks the test loudly.
"""

from __future__ import annotations

import hashlib
import random
import struct

from repro.abe.bsw07 import CPABE
from repro.crypto import randomness
from repro.crypto.group import PairingGroup
from repro.crypto.pairing import tate_pairing
from repro.pbe.hve import HVE
from repro.pbe.serialize import serialize_hve_ciphertext, serialize_hve_token

PARAM_SET = "TOY"
SEED = 20120806  # paper year + vector freeze date

HVE_N = 8
HVE_X = [1, 0, 1, 1, 0, 0, 1, 0]
HVE_PAYLOAD = b"p3s-golden-guid!"
HVE_Y_MATCH = [1, 0, None, None, None, None, 1, None]
HVE_Y_MISS = [0, 0, None, None, None, None, 1, None]

BSW07_ATTRIBUTES = {"org:acme", "role:analyst", "clearance:2"}


class CounterStream:
    """Bytes the vectors were frozen under: SHA-256 of ``label`` and a
    counter, one digest a draw."""

    def __init__(self, label: bytes = b"p3s-golden-nonce"):
        self.label, self.counter = label, 0

    def randbytes(self, n: int) -> bytes:
        self.counter += 1
        return hashlib.sha256(self.label + self.counter.to_bytes(8, "big")).digest()[:n]


def frozen_nonces(label: bytes = b"p3s-golden-nonce", **stand_ins):
    """A seeded block whose SecretBox keys and nonces share one
    :class:`CounterStream`, as the vectors were frozen under."""
    stream = CounterStream(label)
    return randomness.seeded(SEED, key=stream, nonce=stream, **stand_ins)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Keys never cross a wire (they travel as objects in the pickled state
# bundle), so the program has no key format.  The committed digests were
# taken over the byte layouts below, which live here for that purpose only.


def _prefixed(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def _hve_public_key_bytes(group, public) -> bytes:
    """IP08's ``n ‖ Y ‖ T ‖ V ‖ R ‖ M`` of an all-2 key (``T_i = t[i][1]``,
    ``R_i = t[i][0]``, likewise ``V``/``M`` from ``v``)."""
    points = [row[symbol] for symbol in (1, 0) for bases in (public.t, public.v) for row in bases]
    return (
        struct.pack(">I", public.n)
        + group.serialize_gt(public.y_gt)
        + b"".join(group.serialize_g1(point) for point in points)
    )


def _cpabe_public_key_bytes(group, public) -> bytes:
    return (
        b"".join(_prefixed(group.serialize_g1(p)) for p in (public.g, public.h, public.f))
        + _prefixed(group.serialize_gt(public.e_gg_alpha))
    )


def _cpabe_master_key_bytes(group, master) -> bytes:
    # BSW07's MSK (β, g^α); the key holds α
    g_alpha = group.generator * master.alpha
    return master.beta.to_bytes(group.zr_bytes, "big") + group.serialize_g1(g_alpha)


def _cpabe_secret_key_bytes(group, key) -> bytes:
    parts = [_prefixed(group.serialize_g1(key.d)), struct.pack(">I", len(key.components))]
    for attribute in sorted(key.components):
        d_j, d_j_prime = key.components[attribute]
        parts += [
            _prefixed(attribute.encode("utf-8")),
            _prefixed(group.serialize_g1(d_j)),
            _prefixed(group.serialize_g1(d_j_prime)),
        ]
    return b"".join(parts)


def derive_vectors() -> dict:
    """Recompute every golden vector from the fixed seeds."""
    data: dict = {"param_set": PARAM_SET, "seed": SEED}

    # -- Tate pairing on deterministic multiples of g ------------------------
    group = PairingGroup(PARAM_SET)
    scalar_rng = random.Random(SEED ^ 0x7A7E)
    tate_cases = []
    for _ in range(4):
        a = scalar_rng.randrange(1, group.order)
        b = scalar_rng.randrange(1, group.order)
        value = tate_pairing(group.generator * a, group.generator * b)
        tate_cases.append(
            {"a": str(a), "b": str(b), "gt": group.serialize_gt(value).hex()}
        )
    data["tate"] = tate_cases

    # -- HVE: setup → encrypt → tokens → query -------------------------------
    hve_group = PairingGroup(PARAM_SET)
    with frozen_nonces(scalar=random.Random(SEED ^ 0x48E5)):
        hve = HVE(hve_group)
        public, master = hve.setup(HVE_N)
        ciphertext = hve.encrypt(public, HVE_X, HVE_PAYLOAD)
        token_match = hve.gen_token(master, HVE_Y_MATCH)
        token_miss = hve.gen_token(master, HVE_Y_MISS)
    matched = hve.query(token_match, ciphertext)
    missed = hve.query(token_miss, ciphertext)
    data["hve"] = {
        "n": HVE_N,
        "x": HVE_X,
        "public_key_sha256": _sha256(_hve_public_key_bytes(hve_group, public)),
        "ciphertext_hex": serialize_hve_ciphertext(hve_group, ciphertext).hex(),
        "token_match_hex": serialize_hve_token(hve_group, token_match).hex(),
        "token_miss_sha256": _sha256(serialize_hve_token(hve_group, token_miss)),
        "query_match_payload_hex": matched.hex() if matched is not None else None,
        "query_miss_is_none": missed is None,
    }

    # -- BSW07: setup → keygen -----------------------------------------------
    abe_group = PairingGroup(PARAM_SET)
    cpabe = CPABE(abe_group)
    with randomness.seeded(SEED, scalar=random.Random(SEED ^ 0xB59)):
        abe_public, abe_master = cpabe.setup()
        key = cpabe.keygen(abe_master, BSW07_ATTRIBUTES)
    data["bsw07"] = {
        "attributes": sorted(BSW07_ATTRIBUTES),
        "public_key_sha256": _sha256(_cpabe_public_key_bytes(abe_group, abe_public)),
        "master_key_sha256": _sha256(_cpabe_master_key_bytes(abe_group, abe_master)),
        "secret_key_sha256": _sha256(_cpabe_secret_key_bytes(abe_group, key)),
    }
    return data
