"""An HVE public key owns the comb tables of its own 2·Σ|Σ_i| bases (4n
for the binary keys below).

The key below is larger than the ad-hoc cache twice over (sized off the
module constant, so raising the constant cannot make these pass): were
its bases served from that cache, uniformly random attribute vectors
would evict and rebuild tables on every encryption.
"""

import copy
import gc
import pickle
import random
import weakref

import pytest

from repro.crypto import comb, curve, precompute, randomness
from repro.crypto.group import PairingGroup
from repro.crypto.hashing import kdf
from repro.crypto.symmetric import SecretBox
from repro.obs import Observability
from repro.pbe.hve import HVE, HVEPublicKey

from ..crypto.reference import plain_pow
from .reference import naive_encrypt_points

N = comb.MAX_TABLES // 2 + 1
COUNTERS = ("op.g1_exp", "op.g1_exp.fixed_base", "op.g1_exp.fb_build")


@randomness.seeded(24)
def warm_key():
    """``(hve, public)``: every one of the key's 4n bases past its third use."""
    assert 4 * N > 2 * comb.MAX_TABLES
    hve = HVE(PairingGroup("TOY"))
    public, _ = hve.setup(N)
    for bit in (0, 1):
        for _ in range(3):
            hve.encrypt(public, [bit] * N, b"warm-up")
    return hve, public


@pytest.fixture
def warm():
    """``(hve, public, obs)`` of a warm key, counters running since it was cold."""
    precompute.clear_caches()
    obs = Observability()
    with obs.installed():
        yield *warm_key(), obs
    precompute.clear_caches()


def _counts(obs):
    return {name: obs.metrics.counter_total(name) for name in COUNTERS}


def test_random_vectors_build_nothing_once_every_base_is_warm(warm):
    hve, public, obs = warm
    before = _counts(obs)
    assert len(public.tables.tables) == 4 * N  # and g's, in the shared cache (beside Y's)
    shared_points = [base for base in comb.shared_tables.tables if isinstance(base, curve.Point)]
    assert before["op.g1_exp.fb_build"] == 4 * N + len(shared_points)
    vectors = random.Random(1)
    for done in range(1, 51):
        hve.encrypt(public, [vectors.randrange(2) for _ in range(N)], b"measured")
        after = _counts(obs)
        assert after["op.g1_exp.fb_build"] == before["op.g1_exp.fb_build"]
        assert after["op.g1_exp"] - before["op.g1_exp"] == 2 * N * done
        assert after["op.g1_exp.fixed_base"] - before["op.g1_exp.fixed_base"] == 2 * N * done


def test_ciphertext_is_the_table_less_one_bit_for_bit(warm):
    hve, public, _ = warm
    group, vectors = hve.group, random.Random(2)
    for seed in range(3):
        x = [vectors.randrange(2) for _ in range(N)]
        with randomness.seeded(seed):
            ciphertext = hve.encrypt(public, x, b"payload")
        with randomness.seeded(seed):  # the same scalars again
            xs, ws, s = naive_encrypt_points(group, public, x)
        assert (ciphertext.x_components, ciphertext.w_components) == (xs, ws)
        key = kdf(group.serialize_gt(plain_pow(public.y_gt, s)), "hve-kem")
        assert SecretBox(key).open(ciphertext.sealed) == b"payload"


def test_equality_hash_repr_and_copies_ignore_table_state(warm):
    _, public, _ = warm
    cold = HVEPublicKey(public.alphabet, public.y_gt, public.t, public.v)
    assert not cold.tables.tables and len(public.tables.tables) == 4 * N
    assert cold == public and hash(cold) == hash(public) and repr(cold) == repr(public)
    assert pickle.dumps(cold) == pickle.dumps(public)
    for duplicate in (pickle.loads(pickle.dumps(public)), copy.copy(public), copy.deepcopy(public)):
        assert duplicate == public and duplicate.tables is not public.tables
        assert not duplicate.tables.tables and not duplicate.tables.counts


def test_dropping_the_key_frees_its_tables():
    def live_tables():
        gc.collect()
        return sum(isinstance(o, curve.FixedBaseTable) for o in gc.get_objects())

    elsewhere = live_tables()
    _, public = warm_key()
    assert live_tables() - elsewhere >= 4 * N
    key, tables = weakref.ref(public), weakref.ref(public.tables)
    del public
    assert live_tables() <= elsewhere + 1  # g's, if this was its first use
    assert key() is None and tables() is None


def test_the_ad_hoc_cache_never_sees_a_key_base(warm):
    hve, public, _ = warm
    adhoc = comb.shared_tables
    before = (list(adhoc.tables), list(adhoc.counts))
    assert len(before[0]) <= 2  # g and Y, served by value: no point of the key
    vectors = random.Random(3)
    for _ in range(200):
        hve.encrypt(public, [vectors.randrange(2) for _ in range(N)], b"measured")
    assert (list(adhoc.tables), list(adhoc.counts)) == before
    assert len(public.tables.tables) == 4 * N


@randomness.seeded(33)
def test_a_key_builds_each_base_table_on_its_first_use():
    """A key's bases are never one-shot: a 16-symbol position's base, used by
    about one encryption in sixteen, gets its table the first time."""
    hve = HVE(PairingGroup("TOY"))
    public, _ = hve.setup([16, 16, 2])
    hve.encrypt(public, [3, 15, 1], b"first")
    assert len(public.tables.tables) == 6 and not public.tables.counts
    hve.encrypt(public, [3, 0, 1], b"second")
    assert len(public.tables.tables) == 8
