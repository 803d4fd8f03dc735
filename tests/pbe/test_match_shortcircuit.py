"""The match memo must eliminate pairings on repeated evaluations.

IP08 cannot short-circuit *within* one evaluation — the pairing product
only reveals match/no-match after the full multi-pairing, which is what
attribute-hiding requires.  What it can do is never evaluate the same
(token, ciphertext) pair twice: ``matches()`` followed by ``query()``,
or a re-broadcast ciphertext, must cost zero pairings the second time.
These tests pin that behaviour through the obs registry's pairing
counters.
"""

from __future__ import annotations


import pytest

from repro.crypto import randomness
from repro.crypto.group import PairingGroup
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
    return hve, ciphertext, matching, missing


def _pairings(metrics) -> float:
    return metrics.counter_total("op.pairing")


def test_repeat_query_on_non_match_costs_zero_pairings(setup):
    hve, ciphertext, _, missing = setup
    obs = Observability()
    with obs.installed():
        assert hve.query(missing, ciphertext) is None
        first = _pairings(obs.metrics)
        assert first > 0, "first evaluation must pay real pairings"
        assert hve.query(missing, ciphertext) is None
        assert _pairings(obs.metrics) == first, "memo hit must add no pairings"
        assert obs.metrics.counter_total("op.hve.match_memo_hit") == 1


def test_matches_then_query_single_evaluation(setup):
    hve, ciphertext, matching, _ = setup
    obs = Observability()
    with obs.installed():
        assert hve.matches(matching, ciphertext) is True
        first = _pairings(obs.metrics)
        payload = hve.query(matching, ciphertext)
        assert payload == b"shortcircuit-g!!"
        assert _pairings(obs.metrics) == first
        assert obs.metrics.counter_total("op.hve.match_memo_hit") == 1


def test_distinct_ciphertexts_not_conflated(setup):
    hve, ciphertext, matching, _ = setup
    obs = Observability()
    with obs.installed():
        hve.query(matching, ciphertext)
        first = _pairings(obs.metrics)
        other = hve.encrypt(
            hve.setup(4)[0], [1, 0, 1, 0], b"other-ciphertxt!"
        )  # different key: must NOT hit the memo (and must not match)
        assert hve.query(matching, other) is None
        assert _pairings(obs.metrics) > first


def test_memo_disabled_reevaluates():
    hve = HVE(PairingGroup("TOY"), match_cache_size=0)
    public, master = hve.setup(4)
    ct = hve.encrypt(public, [1, 1, 0, 0], b"memoless-guid!!!")
    token = hve.gen_token(master, [0, 0, None, None])
    obs = Observability()
    with obs.installed():
        assert hve.query(token, ct) is None
        first = _pairings(obs.metrics)
        assert hve.query(token, ct) is None
        assert _pairings(obs.metrics) == 2 * first, "no memo → full re-evaluation"

