"""A small-order part of a ciphertext point changes no verdict and no plaintext.

``Point.from_bytes`` checks the curve, not the subgroup, so a publisher
can put ``P + T`` on the wire, ``T`` of small order.  The production
``HVE.query`` and ``CPABE.decrypt`` only ever *evaluate* a ciphertext
point — the Miller lines are the token's or the key's — and the reduced
Tate pairing is defined on ``E/rE``, so ``T`` drops out: the matching
token still opens the payload, the missing one still gets ``None``, and
the CP-ABE plaintext is unchanged (docs/PROTOCOL.md, "Which point drives
the Miller loop").  ``tests/pbe/reference.py`` puts the ciphertext on the
line side and would fail this; it is not the code under test.

Keys and ciphertexts are drawn under :func:`repro.crypto.randomness.seeded`
from a Hypothesis-chosen seed, so a counterexample replays.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abe.bsw07 import CPABE
from repro.crypto import randomness
from repro.crypto.group import PairingGroup
from repro.pbe.hve import HVE

from .reference import small_order_point

GROUP = PairingGroup("TOY")
# divisors of 900, the 23-smooth part of TOY's cofactor
TORSION = {order: small_order_point(order) for order in (2, 3, 4, 5, 9, 25, 900)}
N = 4
X = [1, 0, 1, 1]
PAYLOAD = b"guid-0123456789a"
POLICY = "a and (b or c)"


def _shifted(points: tuple, at: int, torsion) -> tuple:
    return points[:at] + (points[at] + torsion,) + points[at + 1 :]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    order=st.sampled_from(sorted(TORSION)),
    component=st.sampled_from(["x_components", "w_components"]),
    position=st.integers(0, N - 1),
)
def test_hve_verdicts_ignore_a_small_order_part(seed, order, component, position):
    hve = HVE(GROUP)
    with randomness.seeded(seed):
        public, master = hve.setup(N)
        ciphertext = hve.encrypt(public, X, PAYLOAD)
        matching = hve.gen_token(master, [1, None, 1, 1])
        missing = hve.gen_token(master, [1, 1, None, None])
    points = getattr(ciphertext, component)
    hostile = dataclasses.replace(
        ciphertext, **{component: _shifted(points, position, TORSION[order])}
    )
    assert getattr(hostile, component)[position] != points[position]
    assert hve.query(matching, hostile) == PAYLOAD
    assert hve.query(missing, hostile) is None


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    order=st.sampled_from(sorted(TORSION)),
    target=st.sampled_from(["C", "C_y", "C'_y"]),
    leaf=st.integers(0, 2),
)
def test_cpabe_plaintext_ignores_a_small_order_part(seed, order, target, leaf):
    cpabe = CPABE(GROUP)
    with randomness.seeded(seed):
        public, master = cpabe.setup()
        key = cpabe.keygen(master, {"a", "b", "c"})
        message = GROUP.random_gt()
        ciphertext = cpabe.encrypt(public, message, POLICY)
    torsion = TORSION[order]
    if target == "C":
        hostile = dataclasses.replace(ciphertext, c=ciphertext.c + torsion)
    else:
        attribute, c_y, c_y_prime = ciphertext.leaf_components[leaf]
        shifted = (c_y + torsion, c_y_prime) if target == "C_y" else (c_y, c_y_prime + torsion)
        components = list(ciphertext.leaf_components)
        components[leaf] = (attribute, *shifted)
        hostile = dataclasses.replace(ciphertext, leaf_components=tuple(components))
    assert hostile != ciphertext
    assert cpabe.decrypt(key, hostile) == message
