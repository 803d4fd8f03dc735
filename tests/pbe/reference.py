"""The textbook IP08 ``Query``, kept as the reference ``HVE.query`` is
compared against.

It shares no code with :meth:`repro.pbe.hve.HVE._query_key`: one cold
multi-pairing ``Π_{i∈S} ê(X_i, Y_i)·ê(W_i, L_i)`` in the paper's
orientation (ciphertext point as the Miller argument), no token
precomputation, no memo.
"""

from repro.crypto.hashing import kdf
from repro.crypto.symmetric import SecretBox
from repro.errors import DecryptionError


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
    """``(X, W, s)`` of the textbook IP08 ``Encrypt``: the scalars drawn in
    ``HVE.encrypt``'s order, every multiplication the table-less windowed
    ladder — no comb table, no batch, no promotion."""
    s = group.random_zr()
    xs, ws = [], []
    for i, bit in enumerate(x):
        s_i = group.random_zr(nonzero=False)
        x_base, w_base = (public.t[i], public.v[i]) if bit == 1 else (public.r[i], public.m[i])
        xs.append(x_base.scalar_mul_windowed((s - s_i) % group.order))
        ws.append(w_base.scalar_mul_windowed(s_i))
    return tuple(xs), tuple(ws), s
