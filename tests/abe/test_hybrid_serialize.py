"""Hybrid CP-ABE and serialization round-trips."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.abe.hybrid import HybridCPABE
from repro.abe.serialize import (
    deserialize_ciphertext,
    deserialize_hybrid,
    serialize_ciphertext,
    serialize_hybrid,
)
from repro.crypto.group import PairingGroup
from repro.errors import DecryptionError, PolicyNotSatisfiedError, SerializationError

GROUP = PairingGroup("TOY")
SCHEME = HybridCPABE(GROUP)
PUBLIC, MASTER = SCHEME.setup()
KEY = SCHEME.keygen(MASTER, {"org:acme", "role:analyst"})


class TestHybrid:
    def test_roundtrip(self):
        ct = SCHEME.encrypt(PUBLIC, b"payload", "org:acme")
        assert SCHEME.decrypt(KEY, ct) == b"payload"

    def test_empty_payload(self):
        ct = SCHEME.encrypt(PUBLIC, b"", "org:acme")
        assert SCHEME.decrypt(KEY, ct) == b""

    def test_large_payload(self):
        payload = bytes(range(256)) * 64  # 16 KiB
        ct = SCHEME.encrypt(PUBLIC, payload, "org:acme and role:analyst")
        assert SCHEME.decrypt(KEY, ct) == payload

    def test_policy_not_satisfied(self):
        ct = SCHEME.encrypt(PUBLIC, b"secret", "org:other")
        with pytest.raises(PolicyNotSatisfiedError):
            SCHEME.decrypt(KEY, ct)

    def test_tampered_dem_detected(self):
        ct = SCHEME.encrypt(PUBLIC, b"secret", "org:acme")
        tampered = type(ct)(kem=ct.kem, sealed=ct.sealed[:-1] + bytes([ct.sealed[-1] ^ 1]))
        with pytest.raises(DecryptionError):
            SCHEME.decrypt(KEY, tampered)

    @settings(max_examples=5, deadline=None)
    @given(st.binary(max_size=256))
    def test_roundtrip_property(self, payload):
        ct = SCHEME.encrypt(PUBLIC, payload, "org:acme")
        assert SCHEME.decrypt(KEY, ct) == payload


class TestSerialization:
    def test_ciphertext_roundtrip(self):
        message = GROUP.random_gt()
        ct = SCHEME.abe.encrypt(PUBLIC, message, "a and (b or c)")
        restored = deserialize_ciphertext(GROUP, serialize_ciphertext(GROUP, ct))
        assert restored.c_tilde == ct.c_tilde
        assert restored.c == ct.c
        assert restored.leaf_components == ct.leaf_components
        assert restored.policy == ct.policy

    def test_restored_ciphertext_decrypts(self):
        ct = SCHEME.encrypt(PUBLIC, b"bytes", "org:acme")
        restored = deserialize_hybrid(GROUP, serialize_hybrid(GROUP, ct))
        assert SCHEME.decrypt(KEY, restored) == b"bytes"

    def test_truncated_rejected(self):
        ct = SCHEME.encrypt(PUBLIC, b"bytes", "org:acme")
        blob = serialize_hybrid(GROUP, ct)
        with pytest.raises(SerializationError):
            deserialize_hybrid(GROUP, blob[: len(blob) // 2])

    def test_leaf_label_that_disagrees_with_the_policy_rejected(self):
        ct = SCHEME.abe.encrypt(PUBLIC, GROUP.random_gt(), "org:acme")
        ((_, c_y, c_y_prime),) = ct.leaf_components
        hostile = type(ct)(ct.policy, ct.c_tilde, ct.c, (("org:zzz", c_y, c_y_prime),))
        with pytest.raises(SerializationError):
            deserialize_ciphertext(GROUP, serialize_ciphertext(GROUP, hostile))

    @pytest.mark.parametrize(
        "old, new",
        [
            (b"org:acme and role:analyst", b"org:acme and and analyst "),  # does not parse
            (b"org:acme and role:analyst", b"org:acme and role:\xff\xfealyst"),  # not UTF-8
            (b"\x08org:acme", b"\x08org:acm\xff"),  # a leaf label that is not UTF-8
        ],
        ids=["policy-syntax", "policy-encoding", "label-encoding"],
    )
    def test_every_decoding_failure_is_a_serialization_error(self, old, new):
        ct = SCHEME.abe.encrypt(PUBLIC, GROUP.random_gt(), "org:acme and role:analyst")
        blob = serialize_ciphertext(GROUP, ct)
        assert len(old) == len(new) and old in blob
        with pytest.raises(SerializationError):
            deserialize_ciphertext(GROUP, blob.replace(old, new, 1))

    def test_point_off_the_curve_is_a_serialization_error(self):
        ct = SCHEME.abe.encrypt(PUBLIC, GROUP.random_gt(), "org:acme")
        blob = bytearray(serialize_ciphertext(GROUP, ct))
        blob[-1] ^= 1  # last byte of C'_y's y-coordinate
        with pytest.raises(SerializationError):
            deserialize_ciphertext(GROUP, bytes(blob))

    def test_trailing_bytes_rejected(self):
        ct = SCHEME.encrypt(PUBLIC, b"bytes", "org:acme")
        with pytest.raises(SerializationError):
            deserialize_hybrid(GROUP, serialize_hybrid(GROUP, ct) + b"\x00")

    def test_size_grows_linearly_with_leaves(self):
        sizes = []
        for policy, leaves in [("a", 1), ("a and b", 2), ("a and b and c and d", 4)]:
            ct = SCHEME.encrypt(PUBLIC, b"p", policy)
            sizes.append(len(serialize_hybrid(GROUP, ct)))
        per_leaf = (sizes[2] - sizes[0]) / 3
        assert per_leaf == pytest.approx(2 * GROUP.g1_bytes + 2 * 4 + 4 + 1, abs=16)
