"""A charm-crypto-style ``PairingGroup`` facade.

Both P3S crypto schemes (BSW07 CP-ABE and IP08 HVE) are written against
this facade rather than raw curve/pairing functions, mirroring how the
paper's prototype is written against jPBC/PBC.  It bundles:

* the chosen :class:`~repro.crypto.params.TypeAParams` set,
* sampling of uniform Zr scalars, G1 points, and GT elements,
* hashing into Zr and G1,
* the pairing and the shared-final-exponentiation multi-pairing,
* fixed-width serialization for every element type (the source of all
  byte-size accounting used by the performance models).
"""

from __future__ import annotations

from ..errors import ParameterError, SerializationError
from ..reader import Reader
from .curve import Point, fixed_base_table, hash_to_point
from .field import Fq2
from .hashing import hash_bytes, hash_to_int
from .pairing import (
    MillerPrecomputed,
    multi_pairing,
    multi_pairing_precomputed,
    precompute_miller,
    tate_pairing,
)
from .params import PARAM_SETS, TypeAParams
from .randomness import draw_below

__all__ = ["PairingGroup"]


class PairingGroup:
    """One symmetric (Type-1) pairing group ``ê : G1 × G1 → GT``.

    Args:
        params: a :class:`TypeAParams` instance or the name of a
            shipped set (``"TOY"``, ``"TEST"``, ``"PAPER"``).

    Construction warms the process-wide fixed-base comb table for the
    generator (shared across every group instance on the same parameter
    set), so ``g · k`` — the most frequent group operation — is always on
    the fast path.
    """

    def __init__(self, params: TypeAParams | str = "TOY"):
        if isinstance(params, str):
            try:
                params = PARAM_SETS[params]
            except KeyError:
                raise ParameterError(
                    f"unknown parameter set {params!r}; choose from {sorted(PARAM_SETS)}"
                ) from None
        self.params = params
        self.generator = Point.generator(params)
        self._gt_generator: Fq2 | None = None
        fixed_base_table(self.generator)

    # -- basic accessors -----------------------------------------------------

    @property
    def order(self) -> int:
        """Prime order ``r`` of G1 and GT."""
        return self.params.r

    @property
    def gt_generator(self) -> Fq2:
        """``ê(g, g)`` — computed once and cached."""
        if self._gt_generator is None:
            self._gt_generator = tate_pairing(self.generator, self.generator)
        return self._gt_generator

    def gt_identity(self) -> Fq2:
        return Fq2.one(self.params.q)

    # -- sampling ---------------------------------------------------------------

    def random_zr(self, nonzero: bool = True) -> int:
        """Uniform scalar in ``[0, r)`` (``[1, r)`` when ``nonzero``), via :mod:`.randomness`."""
        while True:
            value = draw_below("scalar", self.params.r)
            if value or not nonzero:
                return value

    def random_g1(self) -> Point:
        return self.generator * self.random_zr()

    def random_gt(self) -> Fq2:
        return self.gt_generator ** self.random_zr()

    # -- hashing -------------------------------------------------------------------

    def hash_to_zr(self, domain: str, *parts: bytes) -> int:
        return hash_to_int(domain, self.params.r, *parts)

    def hash_to_g1(self, label: str | bytes) -> Point:
        if isinstance(label, str):
            label = label.encode("utf-8")
        return hash_to_point(label, self.params)

    # -- pairing ----------------------------------------------------------------------

    def pair(self, p: Point, q: Point) -> Fq2:
        return tate_pairing(p, q)

    def multi_pair(self, pairs: list[tuple[Point, Point]]) -> Fq2:
        return multi_pairing(pairs, self.params)

    def precompute_pairing(self, point: Point) -> MillerPrecomputed | None:
        """Precompute ``point``'s Miller lines for fixed-argument pairings.

        Returns ``None`` for the point at infinity (its pairings are the
        identity — :meth:`multi_pair_precomputed` skips such entries, the
        same rule :func:`~repro.crypto.pairing.multi_pairing` applies).
        """
        if point.is_infinity:
            return None
        return precompute_miller(point)

    def multi_pair_precomputed(
        self, entries: list[tuple[MillerPrecomputed | None, Point]]
    ) -> Fq2:
        """``Π ê(P_j, Q_j)`` walking each ``P_j``'s precomputed lines:
        bit-identical to :meth:`multi_pair` on the same pairs."""
        return multi_pairing_precomputed(entries, self.params)

    # -- serialization ------------------------------------------------------------------

    @property
    def g1_bytes(self) -> int:
        """Serialized size of a G1 element."""
        return 1 + 2 * self.params.q_bytes

    @property
    def zr_bytes(self) -> int:
        return self.params.r_bytes

    def serialize_g1(self, point: Point) -> bytes:
        return point.to_bytes()

    def deserialize_g1(self, data: bytes) -> Point:
        return Point.from_bytes(data, self.params)

    def serialize_gt(self, element: Fq2) -> bytes:
        """Fixed-width big-endian ``a || b``, each coordinate ``q_bytes`` long."""
        width = self.params.q_bytes
        return element.a.to_bytes(width, "big") + element.b.to_bytes(width, "big")

    def deserialize_gt(self, data: bytes) -> Fq2:
        reader = Reader(data, SerializationError)
        q, width = self.params.q, self.params.q_bytes
        a, b = reader.uint(width), reader.uint(width)
        reader.end()
        if a >= q or b >= q:  # one encoding an element
            raise SerializationError("GT encoding has a coordinate not below q")
        return Fq2(a, b, q)

    def gt_to_key(self, element: Fq2, label: str = "gt-kem") -> bytes:
        """Derive a 32-byte symmetric key from a GT element (KEM step)."""
        return hash_bytes(label, self.serialize_gt(element))
