"""The PBE-TS checks a certificate's signature once per subject and bytes.

``TokenIssuer.authorize`` remembers, per certificate subject, the exact
certificate bytes whose signature it verified.  A request carrying those
bytes again skips the signature check only: its role and expiry are
checked on every request, and the issuer forgets a certificate once its
``not_after`` is behind its clock.  Each hostile request below comes after
a good certificate was remembered; it must be refused with
``CertificateError``, mint no token, and leave the remembered certificate
served as before, unless the request came after that certificate's
``not_after``: then it was forgotten, and is checked in full again.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.core.pbe_ts import TokenIssuer
from repro.crypto import randomness
from repro.crypto.group import PairingGroup
from repro.crypto.pke import PKEKeyPair
from repro.crypto.signing import Certificate, Signature, SigningKeyPair, VerifyKey
from repro.errors import CertificateError
from repro.pbe.hve import HVE
from repro.pbe.schema import AttributeSpec, Interest, MetadataSchema
from repro.reader import prefixed

SCHEMA = MetadataSchema([AttributeSpec("topic", ("a", "b", "c", "d"))])
INTEREST = Interest({"topic": "a"})
NOT_AFTER = 5.0


@pytest.fixture(scope="module")
def world():
    """The group, the ARA's signer, the PBE-TS's PKE key, the HVE master
    key, and ``good``: the bytes of one subscriber certificate."""
    with randomness.seeded(0x55):
        group = PairingGroup("TOY")
        _, master = HVE(group).setup(SCHEMA.alphabet_sizes)
        signer = SigningKeyPair(group)
        certificate = Certificate.issue(signer, "sub-1", "subscriber", NOT_AFTER)
        return SimpleNamespace(
            group=group,
            signer=signer,
            pke=PKEKeyPair(group),
            master=master,
            good=certificate.to_bytes(group.zr_bytes),
        )


@pytest.fixture()
def issuer(world):
    return TokenIssuer(HVE(world.group), world.master, SCHEMA, world.signer.verify_key)


@pytest.fixture()
def verifications(monkeypatch):
    """How many signatures ``VerifyKey.verify`` has checked."""
    calls = []
    verify = VerifyKey.verify

    def counted(self, message, signature):
        calls.append(message)
        return verify(self, message, signature)

    monkeypatch.setattr(VerifyKey, "verify", counted)
    return calls


def cert_bytes(world, certificate: Certificate) -> bytes:
    return certificate.to_bytes(world.group.zr_bytes)


def good(world) -> bytes:
    return world.good


def serve(world, issuer: TokenIssuer, carried: bytes, now: float = 0.0) -> bytes:
    """One token request carrying certificate bytes ``carried``, as the
    PBE-TS serves it: open, authorize, mint."""
    pke = world.pke
    body = json.dumps(
        {"cert": carried.hex(), "interest": INTEREST.to_json(), "ks": (b"k" * 32).hex()},
        sort_keys=True,
    ).encode("utf-8")
    _, certificate, opened_bytes, interest = issuer.open_request(pke, pke.public.encrypt(body))
    issuer.authorize(certificate, opened_bytes, interest, now)
    return issuer.mint(certificate.subject, interest)


def tampered_challenge(world) -> bytes:
    certificate = Certificate.from_bytes(world.good, world.group)
    signature = certificate.signature
    forged = Signature((signature.challenge + 1) % world.group.order, signature.response)
    return cert_bytes(world, Certificate(certificate.subject, certificate.role, NOT_AFTER, forged))


def int_twin(world) -> bytes:
    """The good certificate with ``not_after`` written ``5`` for ``5.0``: an
    equal ``Certificate``, but not the body the ARA signed."""
    certificate = Certificate.from_bytes(world.good, world.group)
    body = json.dumps(
        {"not_after": int(NOT_AFTER), "role": "subscriber", "subject": certificate.subject},
        sort_keys=True,
    ).encode("utf-8")
    twin = prefixed(body) + certificate.signature.to_bytes(world.group.zr_bytes)
    assert Certificate.from_bytes(twin, world.group) == certificate and twin != world.good
    return twin


def publisher_role(world) -> bytes:
    return cert_bytes(world, Certificate.issue(world.signer, "sub-1", "publisher", NOT_AFTER))


HOSTILE = {
    "tampered challenge": (tampered_challenge, 0.0),
    "int twin of not_after": (int_twin, 0.0),
    "same bytes after not_after": (good, NOT_AFTER + 1),
    "publisher role": (publisher_role, 0.0),
}


def test_a_repeat_request_skips_only_the_signature_check(world, issuer, verifications):
    first = serve(world, issuer, good(world))
    assert len(verifications) == 1
    assert serve(world, issuer, good(world)) and len(verifications) == 1
    assert issuer.tokens_issued == 2 and first


@pytest.mark.parametrize("case", HOSTILE)
def test_a_hostile_request_after_a_remembered_certificate_is_refused(
    world, issuer, verifications, case
):
    make, now = HOSTILE[case]
    serve(world, issuer, good(world))
    with pytest.raises(CertificateError):
        serve(world, issuer, make(world), now=now)
    assert issuer.tokens_issued == 1
    checked = len(verifications)
    forgotten = now > NOT_AFTER
    assert serve(world, issuer, good(world))  # remembered unless it lapsed: no second check
    assert issuer.tokens_issued == 2 and len(verifications) == checked + forgotten


def test_a_renewed_certificate_is_verified_once_and_replaces_the_entry(
    world, issuer, verifications
):
    serve(world, issuer, good(world))
    renewal = Certificate.issue(world.signer, "sub-1", "subscriber", 2 * NOT_AFTER)
    renewed = cert_bytes(world, renewal)
    serve(world, issuer, renewed, now=NOT_AFTER + 1)
    serve(world, issuer, renewed, now=NOT_AFTER + 1)
    assert len(verifications) == 2
    serve(world, issuer, good(world))  # the old bytes were replaced: checked in full again
    assert len(verifications) == 3


def test_a_refused_certificate_never_enters_the_memo(world, issuer, verifications):
    forged = cert_bytes(
        world, Certificate.issue(SigningKeyPair(world.group), "sub-2", "subscriber", NOT_AFTER)
    )
    for _ in range(2):
        with pytest.raises(CertificateError):
            serve(world, issuer, forged)
    assert len(verifications) == 2 and issuer.tokens_issued == 0


def test_a_certificate_is_forgotten_once_its_not_after_has_passed(world, issuer, verifications):
    """50 subjects valid until t = 1, one request each at t = 0.5: 50
    entries; one request at t = 2 leaves none (it is refused: its
    certificate lapsed too), and no more expiry records than entries."""
    subjects = [f"sub-{index}" for index in range(50)]
    carried = [
        cert_bytes(world, Certificate.issue(world.signer, subject, "subscriber", 1.0))
        for subject in subjects
    ]
    for certificate in carried:
        serve(world, issuer, certificate, now=0.5)
    assert len(issuer._verified_by_subject) == len(issuer._verified_expiry) == 50
    with pytest.raises(CertificateError):
        serve(world, issuer, carried[0], now=2.0)
    assert issuer._verified_by_subject == {} and issuer._verified_expiry == []
    assert len(verifications) == 50
