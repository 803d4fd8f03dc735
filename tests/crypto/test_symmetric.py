"""SecretBox known answers (SHAKE-256 keystream + HMAC-SHA256) and AEAD behaviour."""

import hashlib
import hmac

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import kdf
from repro.crypto.symmetric import NONCE_LEN, OVERHEAD, TAG_LEN, SecretBox
from repro.errors import IntegrityError, ParameterError

from .golden_util import frozen_nonces

KAT_KEY = bytes(range(32))
KAT_NONCE_LABEL = b"p3s-secretbox-kat"
KAT_LENGTHS = (0, 1, 63, 64, 65, 8192)

# seal(bytes(i % 251 for i in range(n)), ad) for n in KAT_LENGTHS, one box per
# AD under frozen_nonces(KAT_NONCE_LABEL): the sealed bytes as hex for n <= 1,
# their SHA-256 otherwise.
KNOWN_ANSWERS = {
    b"": (
        "ac83664d478fe5c7d125773242c1ae6da2a18eb90c737fdad82f1dcd0c65ee8db8ebff4f4e8226372714eb93",
        "7510a9f2ba7a877ff19f53567d20c30cb1009020ff7e0678b4fa69296db84a742c9c9d3d3fb7abb551344d11e0",
        "d7712a44558701bbc8ca9b9887bfaa0a2265d786ea315a9888de1f4290ac7d15",
        "08ffd32dfe0dfe0d0c40128394bff2072b2c43aafcdd052ff7d5d8968f2c53ae",
        "5554f533d7774b3a13d0571ed455e733e0ae72bfce8369e50454c29efb5de6bb",
        "fd0abc06178e9dcd0961fb11d94b379853cc9b12d1ac677b7f5866c360bcee2c",
    ),
    b"guid-1": (
        "ac83664d478fe5c7d1257732705de3d958a8beee804cc709023b976cc500b28e46f7e14a958102e5e34de85c",
        "7510a9f2ba7a877ff19f53567ddf6a94acdf76368d09ecbf3bb9e400c6108d8f9f86e649cccc76e1243752575b",
        "0e861681185683ccda42d9153cd67879886801ac50189295e3f9d646425305e8",
        "27b1849d7123386e53f10d7d9e24e1371038c06a495f4c8e5988de477e74fd76",
        "21da313ad6e7d3f7621c14c8e008baa93c4e258e0df8ace55c7fc23116fc33dc",
        "8518bec2238b4ef0ddb7725adfa5ae998fc940c3a35f340388b42fc2bf858850",
    ),
}


def kat_plaintext(size: int) -> bytes:
    return bytes(i % 251 for i in range(size))


def reference_seal(key: bytes, nonce: bytes, plaintext: bytes, ad: bytes) -> bytes:
    """The documented format, byte by byte, sharing no code with SecretBox."""
    stream = hashlib.shake_256(kdf(key, "secretbox2-enc") + nonce).digest(len(plaintext))
    ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
    tagged = len(ad).to_bytes(8, "big") + ad + nonce + ciphertext
    tag = hmac.new(kdf(key, "secretbox2-mac"), tagged, hashlib.sha256).digest()
    return nonce + ciphertext + tag


class TestKnownAnswers:
    @pytest.mark.parametrize("ad", sorted(KNOWN_ANSWERS))
    def test_sealed_bytes_are_pinned(self, ad):
        with frozen_nonces(KAT_NONCE_LABEL):
            box = SecretBox(KAT_KEY)
            sealed = [box.seal(kat_plaintext(n), associated_data=ad) for n in KAT_LENGTHS]
        got = tuple(
            s.hex() if n <= 1 else hashlib.sha256(s).hexdigest()
            for n, s in zip(KAT_LENGTHS, sealed)
        )
        assert got == KNOWN_ANSWERS[ad]
        for n, s in zip(KAT_LENGTHS, sealed):
            assert box.open(s, associated_data=ad) == kat_plaintext(n)

    @pytest.mark.parametrize("size", KAT_LENGTHS)
    def test_matches_bytewise_reference(self, size):
        with frozen_nonces(KAT_NONCE_LABEL):
            sealed = SecretBox(KAT_KEY).seal(kat_plaintext(size), associated_data=b"ad")
        assert sealed == reference_seal(
            KAT_KEY, sealed[:NONCE_LEN], kat_plaintext(size), b"ad"
        )


class TestSecretBox:
    def setup_method(self):
        self.box = SecretBox(SecretBox.generate_key())

    def test_roundtrip(self):
        assert self.box.open(self.box.seal(b"hello")) == b"hello"

    def test_overhead_constant(self):
        for size in (0, 1, 100, 4096):
            sealed = self.box.seal(b"x" * size)
            assert len(sealed) == size + OVERHEAD

    def test_nonce_freshness(self):
        assert self.box.seal(b"same") != self.box.seal(b"same")

    def test_tampering_detected(self):
        sealed = bytearray(self.box.seal(b"payload"))
        sealed[NONCE_LEN] ^= 0x01
        with pytest.raises(IntegrityError):
            self.box.open(bytes(sealed))

    def test_truncation_detected(self):
        sealed = self.box.seal(b"payload")
        with pytest.raises(IntegrityError):
            self.box.open(sealed[:-1])

    def test_too_short_ciphertext(self):
        with pytest.raises(IntegrityError):
            self.box.open(b"short")

    def test_wrong_key_fails(self):
        other = SecretBox(SecretBox.generate_key())
        with pytest.raises(IntegrityError):
            other.open(self.box.seal(b"payload"))

    def test_associated_data_bound(self):
        sealed = self.box.seal(b"payload", associated_data=b"guid-1")
        assert self.box.open(sealed, associated_data=b"guid-1") == b"payload"
        with pytest.raises(IntegrityError):
            self.box.open(sealed, associated_data=b"guid-2")

    def test_bad_key_length(self):
        with pytest.raises(ParameterError):
            SecretBox(b"short")

    @settings(max_examples=25)
    @given(st.binary(max_size=512))
    def test_roundtrip_property(self, data):
        assert self.box.open(self.box.seal(data)) == data

    def test_empty_plaintext_roundtrips(self):
        sealed = self.box.seal(b"")
        assert len(sealed) == OVERHEAD
        assert self.box.open(sealed) == b""

    @pytest.mark.parametrize(
        "offset", [0, NONCE_LEN - 1, NONCE_LEN, NONCE_LEN + 6, -TAG_LEN, -1],
        ids=["nonce-first", "nonce-last", "body-first", "body-last", "tag-first", "tag-last"],
    )
    def test_bit_flip_anywhere_detected(self, offset):
        sealed = bytearray(self.box.seal(b"payload", associated_data=b"guid-1"))
        sealed[offset] ^= 0x80
        with pytest.raises(IntegrityError):
            self.box.open(bytes(sealed), associated_data=b"guid-1")

    def test_bit_flip_in_associated_data_detected(self):
        sealed = self.box.seal(b"payload", associated_data=b"guid-1")
        with pytest.raises(IntegrityError):
            self.box.open(sealed, associated_data=b"guid-0")

    def test_tag_checked_before_any_keystream(self, monkeypatch):
        sealed = bytearray(self.box.seal(b"payload"))
        sealed[-1] ^= 0x01
        monkeypatch.setattr(
            self.box, "_keystream_xor", lambda *a: pytest.fail("keystream before MAC check")
        )
        with pytest.raises(IntegrityError):
            self.box.open(bytes(sealed))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 64 * 1024), st.binary(min_size=1, max_size=32), st.binary(max_size=64))
    def test_constant_expansion_property(self, size, pattern, ad):
        data = (pattern * (size // len(pattern) + 1))[:size]
        sealed = self.box.seal(data, associated_data=ad)
        assert len(sealed) == len(data) + OVERHEAD
        assert self.box.open(sealed, associated_data=ad) == data
