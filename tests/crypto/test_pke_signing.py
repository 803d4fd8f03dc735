"""Trace-DH PKE and Schnorr signature / certificate tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.group import PairingGroup
from repro.crypto.pke import PKEKeyPair, pke_overhead
from repro.crypto.signing import Certificate, Signature, SigningKeyPair
from repro.errors import CertificateError, DecryptionError, IntegrityError, SerializationError

GROUP = PairingGroup("TOY")


class TestPKE:
    def setup_method(self):
        self.keys = PKEKeyPair(GROUP)

    def test_roundtrip(self):
        message = b"(K_s, subscriber cert, predicate)"
        assert self.keys.decrypt(self.keys.public.encrypt(message)) == message

    def test_ciphertexts_randomized(self):
        assert self.keys.public.encrypt(b"m") != self.keys.public.encrypt(b"m")

    def test_overhead(self):
        sealed = self.keys.public.encrypt(b"x" * 100)
        assert len(sealed) == 100 + pke_overhead(GROUP)

    def test_wrong_key_fails(self):
        other = PKEKeyPair(GROUP)
        with pytest.raises(IntegrityError):
            other.decrypt(self.keys.public.encrypt(b"m"))

    def test_short_ciphertext_rejected(self):
        with pytest.raises(DecryptionError):
            self.keys.decrypt(b"tiny")

    def test_corrupt_ephemeral_point_rejected(self):
        sealed = bytearray(self.keys.public.encrypt(b"m"))
        sealed[5] ^= 0xFF
        with pytest.raises(DecryptionError):
            self.keys.decrypt(bytes(sealed))

    @settings(max_examples=10, deadline=None)
    @given(st.binary(max_size=128))
    def test_roundtrip_property(self, message):
        assert self.keys.decrypt(self.keys.public.encrypt(message)) == message


class TestSchnorr:
    def setup_method(self):
        self.signer = SigningKeyPair(GROUP)

    def test_sign_verify(self):
        sig = self.signer.sign(b"message")
        assert self.signer.verify_key.verify(b"message", sig)

    def test_wrong_message_rejected(self):
        sig = self.signer.sign(b"message")
        assert not self.signer.verify_key.verify(b"other", sig)

    def test_wrong_key_rejected(self):
        sig = self.signer.sign(b"message")
        other = SigningKeyPair(GROUP)
        assert not other.verify_key.verify(b"message", sig)

    def test_signature_serialization(self):
        sig = self.signer.sign(b"m")
        data = sig.to_bytes(GROUP.zr_bytes)
        assert Signature.from_bytes(data, GROUP) == sig

    def test_bad_signature_length(self):
        with pytest.raises(SerializationError):
            Signature.from_bytes(b"\x00" * 3, GROUP)

    def test_scalars_not_below_r_rejected(self):
        """``(c, s + r)`` verifies like ``(c, s)``: it was a second encoding
        of every certificate's and telemetry request's signature."""
        r, width = GROUP.order, GROUP.zr_bytes
        signatures = (self.signer.sign(b"m") for _ in range(200))
        sig = next(s for s in signatures if (s.response + r).bit_length() <= 8 * width)
        assert self.signer.verify_key.verify(b"m", Signature(sig.challenge, sig.response + r))
        for c, s in ((sig.challenge, sig.response + r), (r, sig.response), (sig.challenge, r)):
            with pytest.raises(SerializationError):
                Signature.from_bytes(c.to_bytes(width, "big") + s.to_bytes(width, "big"), GROUP)


class TestCertificate:
    def setup_method(self):
        self.ara = SigningKeyPair(GROUP)

    def test_issue_and_validate(self):
        cert = Certificate.issue(self.ara, "alice", "subscriber")
        cert.validate(self.ara.verify_key, "subscriber")

    def test_role_mismatch(self):
        cert = Certificate.issue(self.ara, "alice", "publisher")
        with pytest.raises(CertificateError):
            cert.validate(self.ara.verify_key, "subscriber")

    def test_expiry(self):
        cert = Certificate.issue(self.ara, "alice", "subscriber", not_after=10.0)
        cert.validate(self.ara.verify_key, "subscriber", now=9.9)
        with pytest.raises(CertificateError):
            cert.validate(self.ara.verify_key, "subscriber", now=10.1)

    def test_forged_signature_rejected(self):
        forger = SigningKeyPair(GROUP)
        cert = Certificate.issue(forger, "mallory", "subscriber")
        with pytest.raises(CertificateError):
            cert.validate(self.ara.verify_key, "subscriber")

    def test_serialization_roundtrip(self):
        cert = Certificate.issue(self.ara, "alice", "subscriber", not_after=77.0)
        restored = Certificate.from_bytes(cert.to_bytes(GROUP.zr_bytes), GROUP)
        assert restored == cert
        restored.validate(self.ara.verify_key, "subscriber", now=0.0)

    def test_malformed_bytes(self):
        with pytest.raises(SerializationError):
            Certificate.from_bytes(b"\x00", GROUP)

    def test_tampered_subject_rejected(self):
        cert = Certificate.issue(self.ara, "alice", "subscriber")
        tampered = Certificate("bob", cert.role, cert.not_after, cert.signature)
        with pytest.raises(CertificateError):
            tampered.validate(self.ara.verify_key, "subscriber")
