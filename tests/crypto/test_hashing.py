"""Hashing / KDF utility tests."""

from hypothesis import given, settings, strategies as st

from repro.crypto import hashing
from repro.crypto.hashing import hash_bytes, hash_to_int, kdf


class TestHashBytes:
    def test_deterministic(self):
        assert hash_bytes("d", b"a", b"b") == hash_bytes("d", b"a", b"b")

    def test_domain_separation(self):
        assert hash_bytes("d1", b"a") != hash_bytes("d2", b"a")

    def test_length_prefixing_prevents_ambiguity(self):
        # ("ab", "c") must not collide with ("a", "bc")
        assert hash_bytes("d", b"ab", b"c") != hash_bytes("d", b"a", b"bc")

    def test_output_length(self):
        assert len(hash_bytes("d", b"x")) == 32


class TestHashToInt:
    def test_in_range(self):
        modulus = (1 << 61) - 1
        for i in range(50):
            assert 0 <= hash_to_int("d", modulus, str(i).encode()) < modulus

    def test_deterministic(self):
        assert hash_to_int("d", 997, b"x") == hash_to_int("d", 997, b"x")

    def test_large_modulus(self):
        modulus = (1 << 512) - 569
        value = hash_to_int("d", modulus, b"data")
        assert 0 <= value < modulus

    @settings(max_examples=30)
    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_distinct_inputs_rarely_collide(self, a, b):
        if a != b:
            # 2^-128-ish collision odds; any hit here means a real bug.
            assert hash_to_int("d", 1 << 128, a) != hash_to_int("d", 1 << 128, b)


class TestKdf:
    def test_length(self, monkeypatch):
        for n in (16, 32, 64, 100):
            monkeypatch.setattr(hashing, "KDF_BYTES", n)
            assert len(kdf(b"secret", "label")) == n

    def test_label_separation(self):
        assert kdf(b"secret", "enc") != kdf(b"secret", "mac")

    def test_deterministic(self):
        assert kdf(b"secret", "l") == kdf(b"secret", "l")

    def test_prefix_consistency(self, monkeypatch):
        monkeypatch.setattr(hashing, "KDF_BYTES", 64)
        long = kdf(b"secret", "l")
        monkeypatch.setattr(hashing, "KDF_BYTES", 32)
        assert long[:32] == kdf(b"secret", "l")
