"""No ladder and no Miller loop inverts per step — pinned without a clock.

Every modular inversion under ``crypto/curve.py``, ``crypto/pairing.py``
and ``crypto/jacobian.py`` goes through :func:`repro.crypto.field.fq_inv`
(checked on the source below), so counting its calls counts inversions.
"""

import ast
import inspect

import pytest

from repro.crypto import curve, field, jacobian, pairing, precompute
from repro.crypto.curve import FixedBaseTable, Point, hash_to_point
from repro.crypto.params import PAPER, TOY


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

    table = FixedBaseTable(base, params.r.bit_length() + 4)
    assert len(inversions) <= len(table.rows)  # never rows × 2^w
    del inversions[:]

    table.mul(k)
    assert len(inversions) <= 1
    del inversions[:]

    hash_to_point(b"another label", params)  # try-and-increment + one cofactor multiply
    assert len(inversions) <= 2


def test_miller_loops_never_invert_before_the_final_exponentiation(inversions):
    g = Point.generator(TOY)
    p, q = g * 1234567, g * 7654321
    del inversions[:]

    pairing.miller_loop(p, q)
    pairing._miller_product([(p, q), (q, p), (g, g)], TOY)
    assert inversions == []

    pre = pairing.precompute_miller(p)
    assert len(inversions) <= 1
    del inversions[:]

    pairing.miller_eval(pre, q)
    assert inversions == []

    pairing.multi_pairing([(p, q), (q, g)], TOY)  # the final exponentiation's f̄ / f
    assert len(inversions) == 1
