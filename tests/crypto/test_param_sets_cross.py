"""Cross-parameter-set sanity: schemes work at TEST (and PAPER, marked slow)."""

import os

import pytest

from repro.abe.hybrid import HybridCPABE
from repro.crypto.group import PairingGroup
from repro.crypto.pairing import tate_pairing
from repro.pbe.hve import HVE


@pytest.fixture(scope="module")
def test_group():
    return PairingGroup("TEST")


class TestAtTestParams:
    def test_hve_roundtrip(self, test_group):
        hve = HVE(test_group)
        public, master = hve.setup(4)
        ciphertext = hve.encrypt(public, [1, 0, 1, 1], b"guid")
        assert hve.query(hve.gen_token(master, [1, None, 1, None]), ciphertext) == b"guid"
        assert hve.query(hve.gen_token(master, [0, None, None, None]), ciphertext) is None

    def test_cpabe_roundtrip(self, test_group):
        cpabe = HybridCPABE(test_group)
        public, master = cpabe.setup()
        key = cpabe.keygen(master, {"a", "b"})
        ciphertext = cpabe.encrypt(public, b"payload", "a and b")
        assert cpabe.decrypt(key, ciphertext) == b"payload"

    def test_pairing_bilinearity(self, test_group):
        g = test_group.generator
        e = test_group.gt_generator
        assert tate_pairing(g * 6, g * 7) == e**42


@pytest.mark.skipif(
    os.environ.get("REPRO_SLOW_TESTS") != "1",
    reason="512-bit PAPER params are slow in pure Python; set REPRO_SLOW_TESTS=1",
)
class TestAtPaperParams:
    def test_full_stack_at_paper_params(self):
        group = PairingGroup("PAPER")
        hve = HVE(group)
        public, master = hve.setup(4)
        ciphertext = hve.encrypt(public, [1, 0, 1, 1], b"guid")
        assert hve.query(hve.gen_token(master, [1, 0, None, None]), ciphertext) == b"guid"
        cpabe = HybridCPABE(group)
        cp_public, cp_master = cpabe.setup()
        key = cpabe.keygen(cp_master, {"a"})
        assert cpabe.decrypt(key, cpabe.encrypt(cp_public, b"x", "a")) == b"x"
