"""PairingGroup facade tests."""

import pytest

from repro.crypto.group import PairingGroup
from repro.crypto.pairing import tate_pairing
from repro.crypto.params import TOY
from repro.errors import ParameterError, SerializationError


class TestPairingGroup:
    def setup_method(self):
        self.group = PairingGroup("TOY")

    def test_named_and_explicit_params_agree(self):
        assert PairingGroup(TOY).params is TOY

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError):
            PairingGroup("NOPE")

    def test_order(self):
        assert self.group.order == TOY.r

    def test_gt_generator_cached_and_nontrivial(self):
        e1 = self.group.gt_generator
        e2 = self.group.gt_generator
        assert e1 is e2
        assert not e1.is_one()
        assert (e1**self.group.order).is_one()

    def test_random_zr_in_range(self):
        for _ in range(20):
            value = self.group.random_zr()
            assert 1 <= value < self.group.order
        assert any(self.group.random_zr(nonzero=False) >= 0 for _ in range(5))

    def test_random_g1_in_subgroup(self):
        point = self.group.random_g1()
        assert (point * self.group.order).is_infinity

    def test_random_gt_in_subgroup(self):
        element = self.group.random_gt()
        assert (element**self.group.order).is_one()

    def test_pair_matches_multi_pair(self):
        p, q = self.group.random_g1(), self.group.random_g1()
        assert tate_pairing(p, q) == self.group.multi_pair([(p, q)])

    def test_hash_to_zr_stable(self):
        a = self.group.hash_to_zr("d", b"x")
        assert a == self.group.hash_to_zr("d", b"x")
        assert a != self.group.hash_to_zr("d", b"y")
        assert a != self.group.hash_to_zr("e", b"x")

    def test_hash_to_g1_str_and_bytes(self):
        assert self.group.hash_to_g1("attr") == self.group.hash_to_g1(b"attr")

    def test_g1_serialization_roundtrip(self):
        point = self.group.random_g1()
        data = self.group.serialize_g1(point)
        assert len(data) == self.group.g1_bytes
        assert self.group.deserialize_g1(data) == point

    def test_gt_serialization_roundtrip(self):
        element = self.group.random_gt()
        data = self.group.serialize_gt(element)
        assert len(data) == 2 * self.group.params.q_bytes
        assert self.group.deserialize_gt(data) == element

    def test_gt_bad_length(self):
        with pytest.raises(SerializationError):
            self.group.deserialize_gt(b"\x00" * 3)

    def test_gt_to_key_deterministic(self):
        element = self.group.random_gt()
        assert self.group.gt_to_key(element) == self.group.gt_to_key(element)
        assert len(self.group.gt_to_key(element)) == 32

    def test_gt_identity(self):
        assert self.group.gt_identity().is_one()
