"""Every query runs its pairings, and an ``HVE`` keeps nothing it matched.

IP08 cannot short-circuit *within* one evaluation — the pairing product
only reveals match/no-match after the full multi-pairing, which is what
attribute-hiding requires — and ``HVE`` keeps no (token, ciphertext)
memo across evaluations either: no served path asks twice, so a memo
only held every ciphertext a subscriber had seen.  These tests pin both
through the obs registry's pairing counters and through weak references.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.crypto import randomness
from repro.crypto.group import PairingGroup
from repro.errors import ParameterError
from repro.obs import Observability
from repro.pbe.hve import HVE


@pytest.fixture()
@randomness.seeded(0x5C1)
def setup():
    group = PairingGroup("TOY")
    hve = HVE(group)
    public, master = hve.setup(4)
    ciphertext = hve.encrypt(public, [1, 0, 1, 0], b"shortcircuit-g!!")
    matching = hve.gen_token(master, [1, 0, None, None])
    missing = hve.gen_token(master, [0, 1, None, None])
    return hve, public, ciphertext, matching, missing


def _pairings(metrics) -> float:
    return metrics.counter_total("op.pairing")


def test_distinct_ciphertexts_not_conflated(setup):
    hve, _, ciphertext, matching, _ = setup
    obs = Observability()
    with obs.installed():
        hve.query(matching, ciphertext)
        first = _pairings(obs.metrics)
        other = hve.encrypt(
            hve.setup(4)[0], [1, 0, 1, 0], b"other-ciphertxt!"
        )  # a different key: must not match
        assert hve.query(matching, other) is None
        assert _pairings(obs.metrics) > first


def test_memo_disabled_reevaluates():
    hve = HVE(PairingGroup("TOY"))
    public, master = hve.setup(4)
    ct = hve.encrypt(public, [1, 1, 0, 0], b"memoless-guid!!!")
    token = hve.gen_token(master, [0, 0, None, None])
    obs = Observability()
    with obs.installed():
        assert hve.query(token, ct) is None
        first = _pairings(obs.metrics)
        assert hve.query(token, ct) is None
        assert _pairings(obs.metrics) == 2 * first, "no memo → full re-evaluation"


def test_a_subscriber_keeps_no_ciphertext_after_matching(setup):
    """64 fresh ciphertexts, each queried by a matching and a missing
    token: once the caller drops them, nothing the ``HVE`` or the tokens
    hold keeps one alive."""
    hve, public, _, matching, missing = setup
    held = []
    for index in range(64):
        ciphertext = hve.encrypt(public, [1, 0, index % 2, 0], b"served-%08d" % index)
        assert hve.query(matching, ciphertext) == b"served-%08d" % index
        assert hve.query(missing, ciphertext) is None
        held.append(weakref.ref(ciphertext))
    del ciphertext
    gc.collect()
    assert [ref for ref in held if ref() is not None] == []


def test_a_match_memo_cannot_be_asked_for():
    with pytest.raises(ParameterError):
        HVE(PairingGroup("TOY"), match_cache_size=256)
