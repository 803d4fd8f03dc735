"""Hostile bytes at the signature, certificate and PKE decoders (ROADMAP item 1).

A PBE-TS decodes the certificate inside every token request, a live
service the signature on every telemetry request, and both arrive from
peers nobody vouches for.  The property of ``tests/pbe/test_hostile_bytes.py``:
a valid encoding mutated by truncation, a bit flip, an inflated length
field or a splice with another encoding either decodes to a value that
re-encodes to the very bytes it came from — one encoding a value, so a
signature's scalars are below ``r`` — or is rejected with a
:class:`ReproError` subclass, never another exception.  A decoded
certificate must also validate or be refused with a ``ReproError``.  Each
shape that escaped is pinned below as an ``@example``.
"""

import json

from hypothesis import example, given, settings

from repro.crypto.group import PairingGroup
from repro.crypto.pke import PKEKeyPair
from repro.crypto.signing import Certificate, Signature, SigningKeyPair
from repro.errors import ReproError

from ..hostile import hostile
from .test_pke_small_order import SMALL_ORDER_TRACES, hostile_ciphertexts

GROUP = PairingGroup("TOY")
WIDTH = GROUP.zr_bytes
ARA = SigningKeyPair(GROUP)
CERTIFICATES = [
    Certificate.issue(ARA, subject, role, not_after).to_bytes(WIDTH)
    for subject, role, not_after in (
        ("alice", "subscriber", None),
        ("bob", "publisher", 10.0),
        ("pseudonym-7", "subscriber", 5),
    )
]
SIGNATURES = [ARA.sign(message).to_bytes(WIDTH) for message in (b"", b"ds", b"x" * 40)]
KEYS = [PKEKeyPair(GROUP) for _ in range(2)]
PLAINTEXTS = (b"", b"(K_s, certificate, predicate)")
CIPHERTEXTS = [KEYS[0].public.encrypt(plaintext) for plaintext in PLAINTEXTS] + [
    hostile_ciphertexts(trace)[0] for trace in SMALL_ORDER_TRACES.values()
]


def no_length_fields(blob: bytes) -> list:
    return []


def certificate_fields(blob: bytes) -> list[tuple[int, str]]:
    return [(0, ">I")]


def _certificate(body: bytes) -> bytes:
    """A certificate encoding around ``body``, signed as if it were valid."""
    return len(body).to_bytes(4, "big") + body + SIGNATURES[0]


def _second_encoding() -> bytes:
    """``(c, s + r)`` of a signature whose ``s + r`` still fits the width."""
    for signature in (ARA.sign(b"m") for _ in range(200)):
        if (signature.response + GROUP.order).bit_length() <= 8 * WIDTH:
            return Signature(signature.challenge, signature.response + GROUP.order).to_bytes(WIDTH)
    raise AssertionError("no signature with a small enough response")


# the bugs the two satellite fixes closed, as the properties see them
SIGNATURE_PLUS_R = _second_encoding()
BODY_A_LIST = _certificate(b"[1]")
NOT_AFTER_NOT_A_NUMBER = _certificate(
    json.dumps({"not_after": "x", "role": "subscriber", "subject": "s"}, sort_keys=True).encode()
)


@settings(max_examples=300, deadline=None)
@given(hostile(SIGNATURES, no_length_fields))
@example(SIGNATURE_PLUS_R)
def test_hostile_signature_round_trips_or_is_rejected(blob):
    try:
        signature = Signature.from_bytes(blob, GROUP)
    except ReproError:
        return
    assert signature.to_bytes(WIDTH) == blob
    assert signature.challenge < GROUP.order and signature.response < GROUP.order


@settings(max_examples=300, deadline=None)
@given(hostile(CERTIFICATES, certificate_fields))
@example(BODY_A_LIST)
@example(NOT_AFTER_NOT_A_NUMBER)
def test_hostile_certificate_round_trips_or_is_rejected(blob):
    try:
        certificate = Certificate.from_bytes(blob, GROUP)
    except ReproError:
        return
    assert certificate.to_bytes(WIDTH) == blob
    try:  # what the PBE-TS does next, before the signature check
        certificate.validate(ARA.verify_key, "subscriber", now=1.0)
    except ReproError:
        pass


@settings(max_examples=200, deadline=None)
@given(hostile(CIPHERTEXTS, no_length_fields))
def test_hostile_pke_ciphertext_opens_or_is_rejected(blob):
    """The ephemeral point's parse and the seal: only an authentic
    ciphertext opens."""
    try:
        plaintext = KEYS[0].decrypt(blob)
    except ReproError:
        return
    assert plaintext in PLAINTEXTS


GTS = [GROUP.serialize_gt(element) for element in (GROUP.gt_identity(), GROUP.random_gt())]
# an odd length and a second encoding of one element: the two checks
# deserialize_gt owns
GT_ODD_LENGTH = GTS[1][:-1]
GT_COORDINATE_ABOVE_Q = b"\xff" * GROUP.params.q_bytes + GTS[1][GROUP.params.q_bytes :]


@settings(max_examples=200, deadline=None)
@given(hostile(GTS, no_length_fields))
@example(GT_ODD_LENGTH)
@example(GT_COORDINATE_ABOVE_Q)
def test_hostile_gt_element_round_trips_or_is_rejected(blob):
    try:
        element = PairingGroup.deserialize_gt(GROUP, blob)
    except ReproError:
        return
    assert GROUP.serialize_gt(element) == blob
