"""Hidden-Vector Encryption over prime-order groups (Iovino-Persiano '08).

This is P3S's predicate-based encryption (paper §3.1 and [7, 10]): the
publisher encrypts under an *attribute vector* ``x`` with one symbol
``x_i ∈ Σ_i`` a position; the subscriber holds a *token* for an
*interest vector* ``y`` with ``y_i ∈ Σ_i ∪ {*}``; querying the ciphertext
with the token recovers the message iff ``match(x, y) = 1`` (equality on
every non-wildcard position).  Each position carries its own alphabet
size ``|Σ_i| ≥ 2``: the paper's binary alphabet is the all-2 case, and
:class:`repro.pbe.schema.MetadataSchema` chooses the alphabets (one bit a
position, or one attribute a position).

Construction (notation follows [7]; binary IP08 names ``T_{i,1}, V_{i,1}``
``T_i, V_i`` and ``T_{i,0}, V_{i,0}`` ``R_i, M_i``):

* ``Setup(Σ_1…Σ_n)`` — master secret ``y₀`` and, per position ``i`` and
  symbol ``σ``, secrets ``t_{i,σ}, v_{i,σ}``; public key
  ``Y = ê(g,g)^{y₀}`` and ``T_{i,σ} = g^{t_{i,σ}}, V_{i,σ} = g^{v_{i,σ}}``.
* ``Encrypt(x)`` — pick ``s`` and per-position ``s_i``; emit
  ``X_i = T_{i,x_i}^{s−s_i}, W_i = V_{i,x_i}^{s_i}``.
* ``GenToken(y)`` — additively share ``y₀ = Σ a_i`` over the non-wildcard
  positions ``S``; emit ``Y_i = g^{a_i/t_{i,y_i}}, L_i = g^{a_i/v_{i,y_i}}``.
* ``Query`` — ``Z = Π_{i∈S} ê(X_i, Y_i)·ê(W_i, L_i)``; on a match every
  factor is ``ê(g,g)^{a_i·s}`` so ``Z = Y^s``; any mismatched position
  contributes a random-looking factor.

**Message transport.** [7] is a predicate encryption; P3S uses it to carry
a GUID.  We make the match test decisive by using ``Y^s`` as a KEM: the
payload rides in an authenticated :class:`SecretBox` keyed by
``KDF(Y^s)``, so ``Query`` either returns the exact payload or ``None``
(MAC failure ⇒ no match).  This mirrors how any deployment would carry
bytes and adds only constant overhead.

Security properties (paper §3.1, argued for any alphabet in
docs/PROTOCOL.md): semantic security and collusion resistance hold for
[7]'s construction; **token security does not** — a party holding a
token that can also encrypt chosen metadata can probe the interest vector
(see :mod:`repro.privacy.analysis`, which implements exactly that attack).

The per-token freshness of the additive shares ``a_i`` provides collusion
resistance: components from different tokens use incompatible sharings of
``y₀``, so mixing them yields garbage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..crypto.comb import TableCache
from ..crypto.curve import Point, mul_many
from ..crypto.group import PairingGroup
from ..crypto.hashing import kdf
from ..crypto.symmetric import SecretBox
from ..errors import DecryptionError, ParameterError
from ..obs.hooks import instrument, record_op

__all__ = ["HVE", "HVEPublicKey", "HVEMasterKey", "HVEToken", "HVECiphertext", "WILDCARD"]

WILDCARD = None  # interest-vector positions use None for '*'


@dataclass(frozen=True)
class HVEPublicKey:
    """Public parameters for positions with alphabet sizes ``alphabet``.

    ``t[i][σ]``, ``v[i][σ]`` are the bases ``T_{i,σ}``, ``V_{i,σ}``.
    ``tables`` holds the comb tables of this key's own 2·Σ|Σ_i| bases, each
    started on the base's first use (:mod:`repro.crypto.comb`) — key
    material, as a token's Miller lines are (:attr:`HVEToken.lines`): freed
    with the key, never compared, hashed or pickled (a copy starts with none).
    """

    alphabet: tuple[int, ...]
    y_gt: object  # Y = ê(g,g)^{y₀}  (Fq2)
    t: tuple[tuple[Point, ...], ...]
    v: tuple[tuple[Point, ...], ...]
    tables: TableCache = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bases = 2 * sum(self.alphabet)
        object.__setattr__(self, "tables", TableCache(bases, bases, promote_after=0))

    def __reduce__(self):
        return HVEPublicKey, (self.alphabet, self.y_gt, self.t, self.v)

    @property
    def n(self) -> int:
        return len(self.alphabet)


@dataclass(frozen=True)
class HVEMasterKey:
    """Master secret — held only by the PBE Token Server."""

    alphabet: tuple[int, ...]
    y0: int
    t: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.alphabet)


@dataclass(frozen=True)
class HVEToken:
    """Token for one interest vector.

    ``positions`` lists the non-wildcard indices; ``components[i]`` is the
    pair ``(Y_i, L_i)`` for ``positions[i]``.  The interest vector itself
    is *not* stored — tokens do not reveal it directly (though see the
    token-security caveat in the module docstring).

    ``lines`` holds the Miller lines of every component, built on the
    token's first query: a token matched against a stream of ciphertexts
    pays that setup once, for as long as it lives, with no cache to fall
    out of.  Like a key's comb tables they are never compared or hashed (a
    copy made with ``dataclasses.replace`` starts with none).
    """

    n: int
    positions: tuple[int, ...]
    components: tuple[tuple[Point, Point], ...]
    lines: tuple | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class HVECiphertext:
    """Encryption of a byte payload under attribute vector ``x``."""

    n: int
    x_components: tuple[Point, ...]  # X_i
    w_components: tuple[Point, ...]  # W_i
    sealed: bytes  # SecretBox_{KDF(Y^s)}(payload)


class HVE:
    """The IP08 scheme over a :class:`PairingGroup`.

    An ``HVE`` holds nothing but its group: a query keeps no ciphertext
    and no result, so a subscriber's memory is its keys and tokens, not
    the publications it has matched.

    Args:
        group: the pairing group.
        match_cache_size: must be ``0``.  It sized a (token, ciphertext)
            → result memo that no served path ever hit (0 hits in 1,563
            queries on the benchmark's four workloads) while it held up
            to 256 ciphertexts a client; the memo is gone.  The keyword
            stays only because ``benchmarks/e2e/ladder.py``, which the
            benchmark freezes, passes it; the yardstick revision
            (ROADMAP 6(a)) deletes it.
    """

    def __init__(self, group: PairingGroup, match_cache_size: int = 0):
        if match_cache_size:
            raise ParameterError("HVE keeps no match memo: match_cache_size must be 0")
        self.group = group

    # -- Setup ------------------------------------------------------------

    def setup(self, alphabet: int | Sequence[int]) -> tuple[HVEPublicKey, HVEMasterKey]:
        """Keys for ``alphabet`` — one size a position, or ``n`` for the
        binary ``{0,1}^n``.

        Secrets are drawn a layer at a time from each position's top
        symbol down (all ``t``, then all ``v`` of a layer), so an all-2
        key draws IP08's ``t, v`` (symbol 1) before its ``r, m`` (symbol 0).
        """
        alphabet = (2,) * alphabet if isinstance(alphabet, int) else tuple(alphabet)
        if not alphabet:
            raise ParameterError("vector length must be >= 1")
        if any(size < 2 for size in alphabet):
            raise ParameterError("each position needs an alphabet of at least 2 symbols")
        group = self.group
        y0 = group.random_zr()
        t: list[list[int]] = [[0] * size for size in alphabet]
        v: list[list[int]] = [[0] * size for size in alphabet]
        for layer in range(max(alphabet)):
            rows = [(i, size - 1 - layer) for i, size in enumerate(alphabet) if size > layer]
            for secrets in (t, v):
                for i, symbol in rows:
                    secrets[i][symbol] = group.random_zr()
        g = group.generator
        exponents = [e for secrets in (t, v) for row in secrets for e in row]
        points = iter(mul_many([(g, e) for e in exponents]))  # one batch: lock-step
        t_points, v_points = (
            tuple(tuple(next(points) for _ in range(size)) for size in alphabet)
            for _ in range(2)
        )
        public = HVEPublicKey(alphabet, group.gt_generator**y0, t_points, v_points)
        master = HVEMasterKey(alphabet, y0, tuple(map(tuple, t)), tuple(map(tuple, v)))
        return public, master

    # -- Encrypt -------------------------------------------------------------

    @instrument("hve.encrypt")
    def encrypt(self, public: HVEPublicKey, x: list[int], payload: bytes) -> HVECiphertext:
        """Encrypt ``payload`` under attribute vector ``x``, one symbol a position."""
        self._check_vector(public.alphabet, x, wildcards=False)
        group = self.group
        order = group.order
        s = group.random_zr()
        pairs: list[tuple[Point, int]] = []  # X_0, W_0, X_1, W_1, …
        for i, symbol in enumerate(x):
            s_i = group.random_zr(nonzero=False)
            pairs.append((public.t[i][symbol], (s - s_i) % order))
            pairs.append((public.v[i][symbol], s_i))
        # 2n independent multiplications in hand at once: one lock-step batch
        points = mul_many(pairs, public.tables)
        key = kdf(group.serialize_gt(public.y_gt**s), "hve-kem")
        sealed = SecretBox(key).seal(payload)
        return HVECiphertext(
            n=public.n,
            x_components=tuple(points[0::2]),
            w_components=tuple(points[1::2]),
            sealed=sealed,
        )

    # -- GenToken ----------------------------------------------------------------

    @instrument("hve.token_gen")
    def gen_token(self, master: HVEMasterKey, y: list[int | None]) -> HVEToken:
        """Token for interest vector ``y`` (``None`` = wildcard).

        At least one position must be non-wildcard (the all-wildcard token
        would trivially decrypt everything; the paper assumes honest
        clients never subscribe to everything, and the scheme cannot share
        ``y₀`` over zero positions).
        """
        self._check_vector(master.alphabet, y, wildcards=True)
        positions = tuple(i for i, value in enumerate(y) if value is not None)
        if not positions:
            raise ParameterError("all-wildcard interest vectors are not supported")
        group = self.group
        order = group.order
        # additive sharing of y₀ over the non-wildcard positions
        shares = [group.random_zr(nonzero=False) for _ in positions[:-1]]
        shares.append((master.y0 - sum(shares)) % order)
        g = group.generator
        components: list[tuple[Point, Point]] = []
        for i, a_i in zip(positions, shares):
            t_i, v_i = master.t[i][y[i]], master.v[i][y[i]]
            first = g * (a_i * pow(t_i, -1, order) % order)
            second = g * (a_i * pow(v_i, -1, order) % order)
            components.append((first, second))
        return HVEToken(n=master.n, positions=positions, components=tuple(components))

    # -- Query ----------------------------------------------------------------------

    @instrument("hve.match")
    def query(self, token: HVEToken, ciphertext: HVECiphertext) -> bytes | None:
        """Return the payload iff the token's predicate matches, else ``None``.

        The pairing product is evaluated with a shared final
        exponentiation (:meth:`PairingGroup.multi_pair`) — the ablation
        bench ``bench_ablation_multipairing`` quantifies the saving — over
        the token's Miller lines, computed on its first query and kept by
        the token (:attr:`HVEToken.lines`): a subscription matched against
        a stream of ciphertexts pays the setup once (~3.7x cheaper per
        ciphertext after).  The result is bit-identical to the textbook
        multi-pairing (``tests/pbe/reference.py``).

        IP08 cannot short-circuit *within* one evaluation: every
        non-wildcard position's factors are needed before the product is
        distinguishable from random, which is exactly the
        attribute-hiding property.
        """
        candidate_key = self._query_key(token, ciphertext)
        try:
            payload = SecretBox(candidate_key).open(ciphertext.sealed)
        except DecryptionError:
            return None
        record_op("hve.match_hit")
        return payload

    # -- internals ---------------------------------------------------------------------

    def _token_lines(self, token: HVEToken) -> tuple:
        """Per-component Miller lines for ``token``, built on first use."""
        lines = token.lines
        if lines is None:
            group = self.group
            lines = tuple(
                (group.precompute_pairing(y_i), group.precompute_pairing(l_i))
                for y_i, l_i in token.components
            )
            object.__setattr__(token, "lines", lines)
        return lines

    def _query_key(self, token: HVEToken, ciphertext: HVECiphertext) -> bytes:
        if token.n != ciphertext.n:
            raise ParameterError("token and ciphertext vector lengths differ")
        # Π ê(Y_i, X_i)·ê(L_i, W_i): the PBE-TS minted the token's points, so
        # their lines drive the Miller loop; the ciphertext's, off the wire, are
        # only evaluated, where a small-order part drops out (docs/PROTOCOL.md).
        entries = []
        for i, (pre_y, pre_l) in zip(token.positions, self._token_lines(token)):
            entries.append((pre_y, ciphertext.x_components[i]))
            entries.append((pre_l, ciphertext.w_components[i]))
        z = self.group.multi_pair_precomputed(entries)
        return kdf(self.group.serialize_gt(z), "hve-kem")

    @staticmethod
    def _check_vector(alphabet: tuple[int, ...], vector: list, wildcards: bool) -> None:
        kind = "interest" if wildcards else "attribute"
        if len(vector) != len(alphabet):
            raise ParameterError(f"{kind} vector length {len(vector)} != n={len(alphabet)}")
        for i, (symbol, size) in enumerate(zip(vector, alphabet)):
            if symbol is None and wildcards:
                continue
            if not isinstance(symbol, int) or not 0 <= symbol < size:
                raise ParameterError(
                    f"{kind} position {i} must be a symbol in [0, {size}) (got {symbol!r})"
                )
