"""No ladder and no Miller loop inverts per step — pinned without a clock.

Every modular inversion under ``crypto/curve.py``, ``crypto/pairing.py``
and ``crypto/jacobian.py`` goes through :func:`repro.crypto.field.fq_inv`
(checked on the source below), so counting its calls counts inversions.
"""

import ast
import inspect

import pytest

from repro.crypto import curve, field, jacobian, pairing, precompute
from repro.crypto.comb import WINDOW, TableCache, signed_digits
from repro.crypto.curve import FixedBaseTable, Point, hash_to_point, mul_many
from repro.crypto.params import PAPER, TOY

FILL_ROUNDS = 2  # a missing entry sums two of its row's; 11 and 13 wait a round for 12


@pytest.fixture
def inversions(monkeypatch):
    calls = []
    real = field.fq_inv

    def counting(a, q):
        calls.append(a)
        return real(a, q)

    for module in (field, curve, jacobian, pairing):
        if hasattr(module, "fq_inv"):
            monkeypatch.setattr(module, "fq_inv", counting)
    precompute.clear_caches()
    yield calls
    precompute.clear_caches()


@pytest.mark.parametrize("module", [curve, pairing, jacobian])
def test_no_inversion_bypasses_fq_inv(module):
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pow":
            exponent = node.args[1]
            assert not isinstance(exponent, ast.UnaryOp), f"raw pow(·, -1, q) in {module.__name__}"


@pytest.mark.parametrize("params", [TOY, PAPER], ids=["TOY", "PAPER"])
def test_ladders_invert_once_per_result_or_batch(inversions, params):
    base = hash_to_point(b"inversions", params)
    k = params.r - 12345
    del inversions[:]

    base * k  # variable base, windowed: the digit table's batch + the result
    assert len(inversions) <= 2
    del inversions[:]

    base * 0xFFFF  # small scalar, plain double-and-add: the result only
    assert len(inversions) <= 1
    del inversions[:]

    table = FixedBaseTable(base, params.r.bit_length() + WINDOW)
    assert len(inversions) == 1  # the doubling chain's one normalisation
    del inversions[:]

    table.mul(k)  # fills what its digits select: two lock-step rounds at most
    assert 1 < len(inversions) <= FILL_ROUNDS + 1
    del inversions[:]

    table.mul(k)  # a single multiplication keeps the Jacobian walk
    assert len(inversions) == 1
    del inversions[:]

    hash_to_point(b"another label", params)  # try-and-increment + one cofactor multiply
    assert len(inversions) <= 2


def test_warm_hve_encrypt_inverts_once_per_window_not_once_per_point(inversions):
    """2n = 80 comb multiplications walk in lock-step: one shared inversion
    per signed digit of the widest scalar (it was one per multiplication),
    and the operation counts are what 80 ``Point.__mul__`` calls record."""
    from repro.crypto.group import PairingGroup
    from repro.obs import Observability
    from repro.pbe.hve import HVE

    n = 40
    group = PairingGroup("TOY")
    hve = HVE(group)
    public, _ = hve.setup(n)
    x = [i % 2 for i in range(n)]
    obs = Observability()
    with obs.installed():
        for _ in range(3):  # a key base's first use builds its table
            hve.encrypt(public, x, b"warm-up")
        assert obs.metrics.counter_total("op.g1_exp.fb_build") == 2 * n
        before = {
            name: obs.metrics.counter_total(name)
            for name in ("op.g1_exp", "op.g1_exp.fixed_base", "op.g1_exp.fb_build")
        }
        del inversions[:]
        hve.encrypt(public, x, b"measured")
        digits = TOY.r.bit_length() // WINDOW + 1  # of a scalar below r
        # the walk, its steps filling the entries no warm-up selected, and the KEM's one
        assert len(inversions) <= digits + 1 < 2 * n
        after = {name: obs.metrics.counter_total(name) for name in before}
    assert after["op.g1_exp"] - before["op.g1_exp"] == 2 * n
    assert after["op.g1_exp.fixed_base"] - before["op.g1_exp.fixed_base"] == 2 * n
    assert after["op.g1_exp.fb_build"] == before["op.g1_exp.fb_build"]


@pytest.mark.parametrize("params", [TOY, PAPER], ids=["TOY", "PAPER"])
def test_a_batch_fills_every_table_in_its_own_steps(inversions, params):
    """Four fresh key bases in one batch: one inversion builds each table,
    and the walk fills all four in its own steps — one inversion a signed
    digit, cold or warm."""
    bases = [hash_to_point(b"fill-%d" % i, params) for i in range(4)]
    pairs = [(base, params.r - 12345 - i) for i, base in enumerate(bases)]
    steps = max(len(signed_digits(k)) for _, k in pairs)
    owner = TableCache(4, 4, promote_after=0)
    del inversions[:]

    cold = mul_many(pairs, owner)
    assert len(inversions) == len(bases) + steps
    del inversions[:]

    assert mul_many(pairs, owner) == cold
    assert len(inversions) == steps


def test_a_walk_and_an_evaluation_invert_once_each(inversions):
    """Every pairing evaluates lines: one inversion normalises a walk's
    every slope and base point, and one makes an evaluation's lines monic.
    A cold pairing pays both: three inversions with the final
    exponentiation's."""
    g = Point.generator(TOY)
    p, q = g * 1234567, g * 7654321
    del inversions[:]

    pre = pairing.precompute_miller(p)  # every slope and base point in one batch
    assert len(inversions) == 1
    del inversions[:]

    pairing.miller_eval(pre, q)  # the batched 1/y_Q that makes every line monic
    assert len(inversions) == 1
    del inversions[:]

    pairing.miller_loop(p, q)  # the walk, then the evaluation
    assert len(inversions) == 1 + 1
    del inversions[:]

    pairing.tate_pairing(p, q)  # ... then the final exponentiation's f̄ / f
    assert len(inversions) == 1 + 1 + 1
    del inversions[:]

    # one batch for every pair's 1/y_Q, then the final exponentiation's
    pairing.multi_pairing_precomputed([(pre, q), (pre, g), (None, g), (pre, q)], TOY)
    assert len(inversions) == 1 + 1
    del inversions[:]

    # a walk a pair, one batch for every 1/y_Q, the final exponentiation's
    pairing.multi_pairing([(p, q), (q, p), (g, g)], TOY)
    assert len(inversions) == 3 + 1 + 1


@pytest.fixture
def decrypt_counts(monkeypatch, inversions):
    """What a CP-ABE decryption did, counted since the fixture was last asked."""
    from repro.crypto import group as group_module
    from repro.obs import Observability

    counts = {"precompute_miller": 0, "final_exponentiation": 0, "Fq2.__pow__": 0}

    def counted(name, real):
        def counting(*args):
            counts[name] += 1
            return real(*args)

        return counting

    monkeypatch.setattr(
        group_module, "precompute_miller", counted("precompute_miller", pairing.precompute_miller)
    )
    monkeypatch.setattr(
        pairing,
        "final_exponentiation",
        counted("final_exponentiation", pairing.final_exponentiation),
    )
    monkeypatch.setattr(field.Fq2, "__pow__", counted("Fq2.__pow__", field.Fq2.__pow__))
    obs = Observability()
    pairings_before = 0
    with obs.installed():

        def since_last_asked():
            nonlocal pairings_before
            pairings = obs.metrics.counter_total("op.pairing")
            taken = dict(counts, fq_inv=len(inversions), pairings=pairings - pairings_before)
            pairings_before = pairings
            for name in counts:
                counts[name] = 0
            del inversions[:]
            return taken

        yield since_last_asked


def test_warm_cpabe_decryption_is_one_multi_pairing(decrypt_counts):
    from repro.abe.bsw07 import CPABE
    from repro.crypto.group import PairingGroup

    group = PairingGroup("TOY")
    scheme = CPABE(group)
    public, master = scheme.setup()
    key = scheme.keygen(master, {"a", "b", "c"})
    message = group.random_gt()
    both = scheme.encrypt(public, message, "a and b")
    either = scheme.encrypt(public, message, "a or b")
    decrypt_counts()

    assert scheme.decrypt(key, both) == message
    first = decrypt_counts()
    assert first["precompute_miller"] == 5 <= 1 + 2 * len(key.attributes)  # D, and a's and b's pairs
    assert first["pairings"] == 5  # one per pair, as op.pairing has always counted

    assert scheme.decrypt(key, both) == message
    warm = decrypt_counts()
    assert warm["precompute_miller"] == 0
    assert warm["final_exponentiation"] == 1
    assert warm["Fq2.__pow__"] == 0
    assert warm["pairings"] == 5
    # the batched 1/y_Q and the final exponentiation's, plus one for each of
    # the two ciphertext points that leaf a's Lagrange coefficient 2 is
    # moved onto (b's is −1)
    assert warm["fq_inv"] == 1 + 1 + 2

    assert scheme.decrypt(key, either) == message  # coefficient 1: nothing to move
    assert decrypt_counts() == {
        "precompute_miller": 0,
        "final_exponentiation": 1,
        "Fq2.__pow__": 0,
        "fq_inv": 1 + 1,
        "pairings": 3,
    }


def test_pke_runs_no_curve_multiplication_and_a_warm_decrypt_no_inversion(inversions):
    """The KEM lives in GT: encryption is two comb-table powers, and
    decryption two Lucas ladders over the ephemeral's trace."""
    from repro.crypto.group import PairingGroup
    from repro.crypto.pke import PKEKeyPair
    from repro.obs import Observability

    keys = PKEKeyPair(PairingGroup("TOY"))
    sealed = keys.public.encrypt(b"warm-up")
    keys.decrypt(sealed)
    obs = Observability()
    with obs.installed():
        del inversions[:]
        assert keys.decrypt(sealed) == b"warm-up"
        assert obs.metrics.counter_total("op.g1_exp") == 0
        assert inversions == []
        keys.decrypt(keys.public.encrypt(b"measured"))
        assert obs.metrics.counter_total("op.g1_exp") == 0
        assert obs.metrics.counter_total("op.gt_exp") == 2
