"""``CPABE.decrypt`` (one fixed-argument multi-pairing) against the textbook
recursion in :mod:`tests.abe.reference`, bit for bit, plus the properties of
the per-key line cache."""

import pytest

from repro.abe import bsw07
from repro.abe.bsw07 import CPABE, CPABECiphertext
from repro.crypto import randomness
from repro.crypto.group import PairingGroup
from repro.errors import DecryptionError, MalformedCiphertextError, PolicyNotSatisfiedError

from .reference import reference_decrypt

TEN = [f"attr:{i}" for i in range(10)]

# (policy, key attributes)
CASES = {
    "one-leaf": ("a", {"a"}),
    "and": ("a and b", {"a", "b"}),
    "or-left": ("a or b", {"a"}),
    "or-right": ("a or b", {"b"}),
    "nested": ("2 of (a, b, c) and (d or e)", {"b", "c", "e"}),
    # children 1 and 3: Lagrange coefficients 3/2 and −1/2, full-size mod r
    "non-consecutive": ("2 of (a, b, c)", {"a", "c"}),
    "non-consecutive-nested": ("2 of (a and d, b, c or e) and f", {"a", "d", "e", "f"}),
    "repeated-attribute": ("(a and b) or (a and c)", {"a", "c"}),
    "extra-attributes": ("a and b", {"a", "b", "y", "z"}),
    "ten-leaves": (" and ".join(TEN), set(TEN)),
}


class World:
    def __init__(self, params: str):
        self.group = PairingGroup(params)
        self.scheme = CPABE(self.group)
        self.public, self.master = self.scheme.setup()

    def pair(self, policy: str, attributes: set[str]):
        """A key and a ciphertext of a random message, made by a separate
        instance so ``self.scheme`` has cached nothing about either."""
        maker = CPABE(self.group)
        message = self.group.random_gt()
        return (
            maker.keygen(self.master, attributes),
            maker.encrypt(self.public, message, policy),
            message,
        )


@pytest.fixture(scope="module")
def toy():
    with randomness.seeded(0xABE):
        yield World("TOY")


@pytest.mark.parametrize("case", CASES)
def test_decrypt_equals_the_textbook_recursion(toy, case):
    key, ciphertext, message = toy.pair(*CASES[case])
    expected = reference_decrypt(toy.group, key, ciphertext)
    assert expected == message
    assert toy.scheme.decrypt(key, ciphertext) == expected  # builds the key's lines
    assert toy.scheme.decrypt(key, ciphertext) == expected  # reuses them


@randomness.seeded(0xABE)
def test_paper_parameters():
    world = World("PAPER")
    key, ciphertext, message = world.pair(*CASES["non-consecutive-nested"])
    assert world.scheme.decrypt(key, ciphertext) == reference_decrypt(world.group, key, ciphertext)
    assert world.scheme.decrypt(key, ciphertext) == message


def test_wrong_authority_garbage_is_the_same_garbage(toy):
    """Equivalence is of the function, not only of its successes."""
    other_public, _ = toy.scheme.setup()
    key = toy.scheme.keygen(toy.master, {"a", "b"})
    ciphertext = toy.scheme.encrypt(other_public, toy.group.random_gt(), "a and b")
    assert toy.scheme.decrypt(key, ciphertext) == reference_decrypt(toy.group, key, ciphertext)


def test_lines_are_built_only_for_the_key_points_a_decryption_uses(toy):
    scheme = CPABE(toy.group)
    key, ciphertext, message = toy.pair("attr:0 or attr:1", set(TEN))
    assert scheme.decrypt(key, ciphertext) == message
    assert set(scheme._key_lines[key]) == {key.d, *key.components["attr:0"]}


def test_unsatisfied_policy_is_refused_before_any_pairing_work(toy, monkeypatch):
    scheme = CPABE(toy.group)
    key, ciphertext, _ = toy.pair("a and b", {"a"})

    def no_pairing_work(*args):
        raise AssertionError("pairing work on an unsatisfied policy")

    monkeypatch.setattr(toy.group, "precompute_pairing", no_pairing_work)
    monkeypatch.setattr(toy.group, "multi_pair_precomputed", no_pairing_work)
    with pytest.raises(PolicyNotSatisfiedError):
        scheme.decrypt(key, ciphertext)
    assert not scheme._key_lines


def test_key_line_cache_is_bounded_and_clearable(toy, monkeypatch):
    monkeypatch.setattr(bsw07, "_KEY_CACHE_SIZE", 3)
    scheme = CPABE(toy.group)
    ciphertext = scheme.encrypt(toy.public, toy.group.random_gt(), "a")
    keys = [scheme.keygen(toy.master, {"a"}) for _ in range(4)]
    for key in keys:
        scheme.decrypt(key, ciphertext)
    assert list(scheme._key_lines) == keys[1:]  # N + 1 keys evict the oldest
    scheme.decrypt(keys[1], ciphertext)
    assert list(scheme._key_lines) == [keys[2], keys[3], keys[1]]  # LRU, not FIFO
    scheme.clear_caches()
    assert not scheme._key_lines and not scheme._attribute_points


@pytest.mark.parametrize(
    "relabel",
    [
        lambda leaves: ((("zzz",) + leaves[0][1:]),) + leaves[1:],  # wrong label
        lambda leaves: leaves[::-1],  # right labels, wrong order
        lambda leaves: leaves[:1],  # a leaf short
        lambda leaves: leaves + leaves[:1],  # a leaf over
    ],
    ids=["label", "order", "short", "over"],
)
def test_leaf_labels_must_name_the_policys_leaves(toy, relabel):
    """The labels travel beside the policy; one that disagrees used to reach
    ``key.components[label]`` and die there with a bare ``KeyError``."""
    key, ciphertext, _ = toy.pair("a and b", {"a", "b"})
    hostile = CPABECiphertext(
        policy=ciphertext.policy,
        c_tilde=ciphertext.c_tilde,
        c=ciphertext.c,
        leaf_components=relabel(ciphertext.leaf_components),
    )
    with pytest.raises(MalformedCiphertextError) as caught:
        toy.scheme.decrypt(key, hostile)
    assert isinstance(caught.value, DecryptionError)
