"""The PKE refuses every ephemeral and every public key outside GT.

Up to commit 07e6c2d the KEM ran over G1, and ``deserialize_g1`` checked
the curve but not the subgroup.  The RS's secret key then met whatever
ephemeral a request carried, and a parity probe read one bit of it: a
retrieval request whose ephemeral was the 2-torsion point ``(0, 0)``,
sealed under the key that ``(0, 0)`` itself gives, opened exactly when
``sk`` was odd.  Repeated over the smooth part of ``q + 1``, the probe
gave ``sk`` modulo that part (≈ 21.5 bits at ``TOY``, ``sk mod 408`` at
``PAPER``).

The trace KEM accepts an ephemeral trace ``t`` only if ``t < q``,
``t ≠ 2`` and ``V_r(t) = 2``.  Each small-order shape below is refused
with :class:`DecryptionError` before the DEM is opened.  That holds even
when the seal was made under the key its own trace gives, which is the
probe above.
"""

import pytest

from repro.crypto import pke
from repro.crypto.field import Fq2, lucas_ladder
from repro.crypto.group import PairingGroup
from repro.crypto.hashing import kdf
from repro.crypto.pke import PKEKeyPair, PKEPublicKey
from repro.crypto.symmetric import SecretBox
from repro.errors import DecryptionError, SerializationError

GROUP = PairingGroup("TOY")
Q, WIDTH = GROUP.params.q, GROUP.params.q_bytes


def norm_one_of_order(divisor: int) -> Fq2:
    """A norm-1 element whose order divides ``divisor`` (and is not 1)."""
    for seed in range(2, 100):
        f = Fq2(seed, 1, Q)
        z = f.conjugate() * f.inverse()  # f^(q−1): norm 1
        element = z ** ((Q + 1) // divisor)
        if not element.is_one():
            return element
    raise AssertionError("no element of that order")


ORDER_3 = norm_one_of_order(3)
SMALL_ORDER_TRACES = {
    "identity": 2,
    "order 2": Q - 2,
    "order 4": 0,
    "order 3": 2 * ORDER_3.a % Q,
    "t = q": Q,
    "t = q + 2": Q + 2,
}
NOT_ORDER_R = {
    "-1": Fq2(Q - 1, 0, Q),
    "i": Fq2(0, 1, Q),
    "order 3": ORDER_3,
    "order h": norm_one_of_order((Q + 1) // GROUP.order),  # z^r: order dividing h
}


def hostile_ciphertexts(trace: int) -> list[bytes]:
    """``trace`` as the ephemeral, sealed under every key the trace could
    give: the probe's guesses at ``V_sk(trace)`` for each ``sk mod 12``."""
    sealed = []
    for residue in range(12):
        shared = lucas_ladder(trace % Q, residue, Q)[0]
        key = kdf(shared.to_bytes(WIDTH, "big"), pke.KDF_LABEL)
        sealed.append(trace.to_bytes(WIDTH, "big") + SecretBox(key).seal(b"(K_s, GUID)"))
    return sealed


def test_the_order_3_element_is_in_the_norm_1_group():
    assert ORDER_3.norm() == 1 and (ORDER_3 * ORDER_3 * ORDER_3).is_one()


@pytest.mark.parametrize("trace", SMALL_ORDER_TRACES.values(), ids=SMALL_ORDER_TRACES.keys())
def test_a_small_order_ephemeral_is_refused_before_the_dem(monkeypatch, trace):
    keys = PKEKeyPair(GROUP)
    ciphertexts = hostile_ciphertexts(trace)

    class NoDem:
        def __init__(self, key):
            raise AssertionError("the DEM was tried")

    monkeypatch.setattr(pke, "SecretBox", NoDem)
    for ciphertext in ciphertexts:
        with pytest.raises(DecryptionError, match="order r"):
            keys.decrypt(ciphertext)


def test_the_membership_check_accepts_exactly_the_traces_of_gt():
    keys = PKEKeyPair(GROUP)
    for _ in range(5):
        element = GROUP.random_gt()
        assert pke._of_order_r(2 * element.a % Q, GROUP) is (not element.is_one())
    assert keys.decrypt(keys.public.encrypt(b"m")) == b"m"


@pytest.mark.parametrize("element", NOT_ORDER_R.values(), ids=NOT_ORDER_R.keys())
def test_a_public_key_outside_gt_is_refused(element):
    assert element.norm() == 1
    with pytest.raises(SerializationError, match="order r"):
        PKEPublicKey.from_bytes(GROUP.serialize_gt(element), GROUP)


def test_a_public_key_off_the_norm_1_group_is_refused():
    public = PKEKeyPair(GROUP).public.element
    same_trace = Fq2(public.a, public.b + 1, Q)  # the trace passes, the norm does not
    with pytest.raises(SerializationError, match="order r"):
        PKEPublicKey.from_bytes(GROUP.serialize_gt(same_trace), GROUP)
