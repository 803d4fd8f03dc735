"""HVE wildcard-position sweeps.

Systematic coverage of the token wildcard structure: every single-
position token against every attribute vector bit, fully-constrained
(no-wildcard) tokens, the rejected all-wildcard token, and adversarial
near-misses that agree with the ciphertext everywhere except exactly one
position.
"""

from __future__ import annotations


import pytest

from repro.crypto import randomness
from repro.crypto.group import PairingGroup
from repro.errors import ParameterError
from repro.pbe.hve import HVE

N = 6
X = [1, 0, 1, 1, 0, 0]
PAYLOAD = b"wildcard-sweep!!"


@pytest.fixture(scope="module")
@randomness.seeded(0x111D)
def setup():
    group = PairingGroup("TOY")
    hve = HVE(group)
    public, master = hve.setup(N)
    ciphertext = hve.encrypt(public, X, PAYLOAD)
    return hve, master, ciphertext


def test_single_position_sweep(setup):
    """Token constraining only position i matches iff y_i == x_i."""
    hve, master, ciphertext = setup
    for i in range(N):
        for bit in (0, 1):
            y: list[int | None] = [None] * N
            y[i] = bit
            token = hve.gen_token(master, y)
            result = hve.query(token, ciphertext)
            if bit == X[i]:
                assert result == PAYLOAD, f"position {i} bit {bit} should match"
            else:
                assert result is None, f"position {i} bit {bit} should not match"


def test_no_wildcard_exact_vector_matches(setup):
    hve, master, ciphertext = setup
    token = hve.gen_token(master, list(X))
    assert hve.query(token, ciphertext) == PAYLOAD


def test_all_wildcard_token_rejected(setup):
    hve, master, _ = setup
    with pytest.raises(ParameterError):
        hve.gen_token(master, [None] * N)


def test_adversarial_near_miss_sweep(setup):
    """Fully-constrained tokens differing from x in exactly one position
    must all fail — no partial-match leakage at any position."""
    hve, master, ciphertext = setup
    for i in range(N):
        y = list(X)
        y[i] ^= 1
        token = hve.gen_token(master, y)
        assert hve.query(token, ciphertext) is None, f"near-miss at {i} matched"


def test_near_miss_with_wildcards_elsewhere(setup):
    """One wrong constrained position poisons the match even when every
    other position is a wildcard."""
    hve, master, ciphertext = setup
    for i in range(N):
        y: list[int | None] = [None] * N
        y[i] = X[i] ^ 1
        y[(i + 1) % N] = X[(i + 1) % N]  # one correct anchor as well
        token = hve.gen_token(master, y)
        assert hve.query(token, ciphertext) is None


def test_wildcard_count_gradient(setup):
    """Growing the wildcard set of a correct token never breaks the match."""
    hve, master, ciphertext = setup
    for wildcards in range(N):  # 0 .. N-1 wildcard positions
        y: list[int | None] = list(X)
        for j in range(wildcards):
            y[N - 1 - j] = None
        token = hve.gen_token(master, y)
        assert hve.query(token, ciphertext) == PAYLOAD
