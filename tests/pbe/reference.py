"""Textbook IP08, kept as the reference :class:`repro.pbe.hve.HVE` is
compared against.

It shares no code with ``repro.pbe.hve``: the binary scheme as [7] states
it (bases ``T_i, V_i`` for bit 1 and ``R_i, M_i`` for bit 0, secrets drawn
``y₀, t, v, r, m``), every multiplication the table-less windowed ladder,
and one cold multi-pairing ``Π_{i∈S} ê(X_i, Y_i)·ê(W_i, L_i)`` in the
paper's orientation (ciphertext point as the Miller argument) — no token
precomputation, no memo.
"""

from repro.crypto.hashing import kdf
from repro.crypto.symmetric import SecretBox
from repro.errors import DecryptionError
from repro.pbe.hve import HVECiphertext, HVEToken

from ..crypto.reference import plain_pow


def naive_query(group, token, ciphertext) -> bytes | None:
    """The payload iff the token's predicate matches, else ``None``."""
    pairs = []
    for i, (y_i, l_i) in zip(token.positions, token.components):
        pairs.append((ciphertext.x_components[i], y_i))
        pairs.append((ciphertext.w_components[i], l_i))
    z = group.multi_pair(pairs)
    try:
        return SecretBox(kdf(group.serialize_gt(z), "hve-kem")).open(ciphertext.sealed)
    except DecryptionError:
        return None


def naive_encrypt_points(group, public, x):
    """``(X, W, s)`` of ``Encrypt`` under any key of the one class: the
    scalars drawn in ``HVE.encrypt``'s order, every multiplication the
    table-less windowed ladder — no comb table, no batch, no promotion."""
    s = group.random_zr()
    xs, ws = [], []
    for i, symbol in enumerate(x):
        s_i = group.random_zr(nonzero=False)
        xs.append(public.t[i][symbol].scalar_mul_windowed((s - s_i) % group.order))
        ws.append(public.v[i][symbol].scalar_mul_windowed(s_i))
    return tuple(xs), tuple(ws), s


def ip08_setup(group, n):
    """``(public, secret)`` of binary IP08: ``public`` is ``(Y, T, V, R, M)``,
    ``secret`` is ``(y₀, t, v, r, m)``."""
    y0 = group.random_zr()
    t = [group.random_zr() for _ in range(n)]
    v = [group.random_zr() for _ in range(n)]
    r = [group.random_zr() for _ in range(n)]
    m = [group.random_zr() for _ in range(n)]
    g = group.generator
    bases = [tuple(g.scalar_mul_windowed(e) for e in row) for row in (t, v, r, m)]
    return (plain_pow(group.gt_generator, y0), *bases), (y0, t, v, r, m)


def ip08_encrypt(group, public, x, payload) -> HVECiphertext:
    y_gt, t, v, r, m = public
    s = group.random_zr()
    xs, ws = [], []
    for i, bit in enumerate(x):
        s_i = group.random_zr(nonzero=False)
        x_base, w_base = (t[i], v[i]) if bit == 1 else (r[i], m[i])
        xs.append(x_base.scalar_mul_windowed((s - s_i) % group.order))
        ws.append(w_base.scalar_mul_windowed(s_i))
    sealed = SecretBox(kdf(group.serialize_gt(plain_pow(y_gt, s)), "hve-kem")).seal(payload)
    return HVECiphertext(len(x), tuple(xs), tuple(ws), sealed)


def ip08_gen_token(group, secret, y) -> HVEToken:
    y0, t, v, r, m = secret
    order = group.order
    positions = tuple(i for i, bit in enumerate(y) if bit is not None)
    shares = [group.random_zr(nonzero=False) for _ in positions[:-1]]
    shares.append((y0 - sum(shares)) % order)
    g = group.generator
    components = []
    for i, a_i in zip(positions, shares):
        first, second = (t[i], v[i]) if y[i] == 1 else (r[i], m[i])
        components.append(
            (
                g.scalar_mul_windowed(a_i * pow(first, -1, order) % order),
                g.scalar_mul_windowed(a_i * pow(second, -1, order) % order),
            )
        )
    return HVEToken(len(y), positions, tuple(components))
