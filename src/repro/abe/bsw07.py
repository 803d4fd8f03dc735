"""Ciphertext-Policy Attribute-Based Encryption (Bethencourt-Sahai-Waters '07).

This is the construction P3S uses for payload confidentiality (paper §3.2
and [8, 15]): the publisher encrypts under a *policy tree* over attributes;
the ARA gives each client a secret key for its *attribute set*; decryption
succeeds iff the attributes satisfy the policy.  Collusion resistance comes
from the per-key randomizer ``r`` baked into every key component.

Algorithms (notation as in the paper's §3.2 definition):

* ``Setup() → (PP, MSK)`` — ``PP = (g, h=g^β, f=g^{1/β}, ê(g,g)^α)``,
  ``MSK = (β, α)``: BSW07 keeps ``g^α``, which ``α`` determines.
* ``KeyGen(MSK, S) → SK`` — ``D = g^{(α+r)/β}``, one multiplication of
  ``g`` by ``(α + r)·β⁻¹ mod r``; per attribute ``j``:
  ``D_j = g^r·H(j)^{r_j}``, ``D'_j = g^{r_j}``.
* ``Encrypt(PP, M, A) → CT_A`` — shares ``s`` down the tree with one
  degree-(k−1) polynomial per gate; ``C̃ = M·ê(g,g)^{αs}``, ``C = h^s``,
  per leaf ``y``: ``C_y = g^{q_y(0)}``, ``C'_y = H(att(y))^{q_y(0)}``.
* ``Decrypt(PP, SK, CT)`` — the satisfied subtree is flattened (BSW07 §5):
  Lagrange coefficients are multiplied down to each used leaf ``y``, and
  ``M = C̃ · Π_y ê(D_j, z_y·C_y) · ê(D'_j, −z_y·C'_y) · ê(D, −C)`` is ONE
  multi-pairing — one shared accumulator, one final exponentiation.  Every
  first argument is a point of the secret key, so its Miller lines are
  computed once per key and reused across ciphertexts, exactly as HVE
  does for subscription tokens.

Messages are GT elements; byte payloads go through
:mod:`repro.abe.hybrid` (KEM-DEM), exactly like the cpabe toolkit wraps an
AES session key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.curve import Point
from ..crypto.field import Fq2
from ..crypto.group import PairingGroup
from ..errors import MalformedCiphertextError, PolicyError, PolicyNotSatisfiedError
from ..obs.hooks import instrument
from .policy import PolicyNode, parse_policy

__all__ = ["CPABE", "CPABEPublicKey", "CPABEMasterKey", "CPABESecretKey", "CPABECiphertext"]


@dataclass(frozen=True)
class CPABEPublicKey:
    """Public parameters PP."""

    g: Point
    h: Point  # g^β
    f: Point  # g^{1/β} (BSW07's delegation element; part of PK_C)
    e_gg_alpha: Fq2  # ê(g, g)^α


@dataclass(frozen=True)
class CPABEMasterKey:
    """Master secret MSK — held only by the ARA."""

    beta: int
    alpha: int  # BSW07's MSK holds g^α; D = g^{(α+r)/β} needs only α


@dataclass(frozen=True)
class CPABESecretKey:
    """A client key for attribute set ``attributes``.

    ``lines`` maps each key point a decryption has paired with (``D`` and
    each used ``D_j``, ``D'_j``) to its Miller lines, built on that
    point's first pairing: the key owns them, as a token owns its own
    (:attr:`repro.pbe.hve.HVEToken.lines`).  They are never compared or
    hashed (a copy made with ``dataclasses.replace`` starts with none).
    """

    attributes: frozenset[str]
    d: Point  # g^{(α+r)/β}
    components: dict[str, tuple[Point, Point]]  # j -> (D_j, D'_j)
    lines: dict = field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class CPABECiphertext:
    """CT_A: the policy travels in the clear (paper §3.2)."""

    policy: PolicyNode
    c_tilde: Fq2  # M · ê(g,g)^{αs}
    c: Point  # h^s
    leaf_components: tuple[tuple[str, Point, Point], ...]  # (att(y), C_y, C'_y) in leaf order

    def labels_match_policy(self) -> bool:
        """Whether the leaf components name the policy's leaves one for one
        (the labels travel beside the policy text, so a sender can make
        them disagree)."""
        return [leaf.attribute for leaf in self.policy.leaves()] == [
            attribute for attribute, _, _ in self.leaf_components
        ]


_ATTRIBUTE_MEMO_SIZE = 1024  # hashed attribute points kept per CPABE instance


class CPABE:
    """The BSW07 scheme over a :class:`PairingGroup`.

    A decryption pairs over the Miller lines of the secret key's points,
    which the key itself keeps (:attr:`CPABESecretKey.lines`).
    """

    def __init__(self, group: PairingGroup):
        self.group = group
        self._attribute_points: dict[str, Point] = {}

    # -- Setup ---------------------------------------------------------------

    def setup(self) -> tuple[CPABEPublicKey, CPABEMasterKey]:
        group = self.group
        alpha = group.random_zr()
        beta = group.random_zr()
        g = group.generator
        public = CPABEPublicKey(
            g=g,
            h=g * beta,
            f=g * pow(beta, -1, group.order),
            e_gg_alpha=group.gt_generator**alpha,
        )
        master = CPABEMasterKey(beta=beta, alpha=alpha)
        return public, master

    # -- KeyGen ---------------------------------------------------------------

    @instrument("abe.keygen")
    def keygen(self, master: CPABEMasterKey, attributes: set[str]) -> CPABESecretKey:
        if not attributes:
            raise PolicyError("attribute set must be non-empty")
        group = self.group
        r = group.random_zr()
        order = group.order
        d = group.generator * ((master.alpha + r) * pow(master.beta, -1, order) % order)
        components: dict[str, tuple[Point, Point]] = {}
        g_r = group.generator * r
        for attribute in sorted(attributes):
            r_j = group.random_zr()
            d_j = g_r + self._hash_attribute(attribute) * r_j
            d_j_prime = group.generator * r_j
            components[attribute] = (d_j, d_j_prime)
        return CPABESecretKey(frozenset(attributes), d, components)

    # -- Encrypt -----------------------------------------------------------------

    @instrument("abe.encrypt")
    def encrypt(self, public: CPABEPublicKey, message: Fq2, policy: PolicyNode | str) -> CPABECiphertext:
        group = self.group
        tree = parse_policy(policy)
        s = group.random_zr()
        shares = self._share_secret(tree, s)
        leaf_components = tuple(
            (leaf.attribute, group.generator * share, self._hash_attribute(leaf.attribute) * share)
            for leaf, share in zip(tree.leaves(), shares)
        )
        return CPABECiphertext(
            policy=tree,
            c_tilde=message * (public.e_gg_alpha**s),
            c=public.h * s,
            leaf_components=leaf_components,
        )

    # -- Decrypt ------------------------------------------------------------------

    @instrument("abe.decrypt")
    def decrypt(self, key: CPABESecretKey, ciphertext: CPABECiphertext) -> Fq2:
        """Recover the GT message.

        Raises :class:`PolicyNotSatisfiedError` when the key's attributes do
        not satisfy the policy, and :class:`MalformedCiphertextError` when
        the leaf components do not label the policy's leaves one for one.
        """
        policy = ciphertext.policy
        attributes = key.attributes
        if not policy.satisfied_by(attributes):
            raise PolicyNotSatisfiedError(
                f"attributes {sorted(attributes)} do not satisfy policy {policy}"
            )
        if not ciphertext.labels_match_policy():
            raise MalformedCiphertextError("ciphertext leaf components do not match its policy")
        group = self.group
        order = group.order
        lines = key.lines

        def lines_of(point: Point):
            if point not in lines:
                lines[point] = group.precompute_pairing(point)
            return lines[point]

        # ê(D, −C) = ê(g,g)^{−s(α+r)}; the leaves contribute ê(g,g)^{rs}
        entries = [(lines_of(key.d), -ciphertext.c)]
        for position, z in self._leaf_coefficients(policy, attributes, 1, 0):
            attribute, c_y, c_y_prime = ciphertext.leaf_components[position]
            d_j, d_j_prime = key.components[attribute]
            if z > order // 2:
                z -= order  # symmetric range: −1 is a negation, not a 160-bit ladder
            # (ê(D_j, C_y) / ê(D'_j, C'_y))^z = ê(g,g)^{r·z·q_y(0)}; z is public,
            # so bilinearity moves it onto the ciphertext's points
            entries.append((lines_of(d_j), _scaled(c_y, z)))
            entries.append((lines_of(d_j_prime), _scaled(c_y_prime, -z)))
        return ciphertext.c_tilde * group.multi_pair_precomputed(entries)

    # -- internals -------------------------------------------------------------------

    def _hash_attribute(self, attribute: str) -> Point:
        """``H(attribute)``, memoised: the same few attribute strings recur on
        every encrypt/keygen and each hash is a cofactor multiplication."""
        point = self._attribute_points.get(attribute)
        if point is None:
            if len(self._attribute_points) >= _ATTRIBUTE_MEMO_SIZE:
                self._attribute_points.clear()
            point = self.group.hash_to_g1("cpabe-attr:" + attribute)
            self._attribute_points[attribute] = point
        return point

    def _share_secret(self, node: PolicyNode, secret: int) -> list[int]:
        """Shamir-share ``secret`` down the tree; returns per-leaf shares in leaf order."""
        group = self.group
        if node.is_leaf:
            return [secret]
        # polynomial q with q(0) = secret, degree = threshold − 1
        coefficients = [secret] + [group.random_zr(nonzero=False) for _ in range(node.threshold - 1)]
        shares: list[int] = []
        for index, child in enumerate(node.children, start=1):
            value = self._eval_poly(coefficients, index)
            shares.extend(self._share_secret(child, value))
        return shares

    def _eval_poly(self, coefficients: list[int], x: int) -> int:
        order = self.group.order
        result = 0
        for coefficient in reversed(coefficients):
            result = (result * x + coefficient) % order
        return result

    def _leaf_coefficients(
        self, node: PolicyNode, attributes: frozenset[str], z: int, first: int
    ) -> list[tuple[int, int]]:
        """``(leaf position, coefficient mod r)`` for every leaf a satisfied
        subtree uses: the product of the Lagrange coefficients on the path
        from ``node`` (entered with ``z``) down to the leaf, so that
        ``Σ z_y·q_y(0) = z·q_node(0)``.  ``first`` is the position of the
        subtree's leftmost leaf, which keeps repeated attributes apart.
        """
        if node.is_leaf:
            return [(first, z)]
        picked = node.satisfying_children(attributes)
        used: list[tuple[int, int]] = []
        for index, child in enumerate(node.children, start=1):
            if index in picked:
                z_child = z * self._lagrange(index, picked) % self.group.order
                used.extend(self._leaf_coefficients(child, attributes, z_child, first))
            first += len(child.leaves())
        return used

    def _lagrange(self, i: int, indices: list[int]) -> int:
        """Lagrange coefficient Δ_{i,S}(0) mod r."""
        order = self.group.order
        numerator, denominator = 1, 1
        for j in indices:
            if j == i:
                continue
            numerator = numerator * (-j) % order
            denominator = denominator * (i - j) % order
        return numerator * pow(denominator, -1, order) % order


def _scaled(point: Point, z: int) -> Point:
    """``z·point`` for ``z`` in the symmetric range; ``±1`` costs nothing."""
    if z < 0:
        point, z = -point, -z
    return point if z == 1 else point * z
