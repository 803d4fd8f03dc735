"""Ciphertext-Policy Attribute-Based Encryption (Bethencourt-Sahai-Waters '07).

This is the construction P3S uses for payload confidentiality (paper §3.2
and [8, 15]): the publisher encrypts under a *policy tree* over attributes;
the ARA gives each client a secret key for its *attribute set*; decryption
succeeds iff the attributes satisfy the policy.  Collusion resistance comes
from the per-key randomizer ``r`` baked into every key component.

Algorithms (notation as in the paper's §3.2 definition):

* ``Setup() → (PP, MSK)`` — ``PP = (g, h=g^β, f=g^{1/β}, ê(g,g)^α)``,
  ``MSK = (β, g^α)``.
* ``KeyGen(MSK, S) → SK`` — ``D = g^{(α+r)/β}``; per attribute ``j``:
  ``D_j = g^r·H(j)^{r_j}``, ``D'_j = g^{r_j}``.
* ``Encrypt(PP, M, A) → CT_A`` — shares ``s`` down the tree with one
  degree-(k−1) polynomial per gate; ``C̃ = M·ê(g,g)^{αs}``, ``C = h^s``,
  per leaf ``y``: ``C_y = g^{q_y(0)}``, ``C'_y = H(att(y))^{q_y(0)}``.
* ``Decrypt(PP, SK, CT)`` — recursive pairing evaluation with Lagrange
  recombination at each gate.

Messages are GT elements; byte payloads go through
:mod:`repro.abe.hybrid` (KEM-DEM), exactly like the cpabe toolkit wraps an
AES session key.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.curve import Point
from ..crypto.field import Fq2
from ..crypto.group import PairingGroup
from ..errors import PolicyError, PolicyNotSatisfiedError
from ..obs.profile import instrument
from .policy import PolicyNode, parse_policy

__all__ = ["CPABE", "CPABEPublicKey", "CPABEMasterKey", "CPABESecretKey", "CPABECiphertext"]


@dataclass(frozen=True)
class CPABEPublicKey:
    """Public parameters PP."""

    g: Point
    h: Point  # g^β
    f: Point  # g^{1/β} (used for key delegation)
    e_gg_alpha: Fq2  # ê(g, g)^α


@dataclass(frozen=True)
class CPABEMasterKey:
    """Master secret MSK — held only by the ARA."""

    beta: int
    g_alpha: Point  # g^α


@dataclass(frozen=True)
class CPABESecretKey:
    """A client key for attribute set ``attributes``."""

    attributes: frozenset[str]
    d: Point  # g^{(α+r)/β}
    components: dict[str, tuple[Point, Point]]  # j -> (D_j, D'_j)


@dataclass(frozen=True)
class CPABECiphertext:
    """CT_A: the policy travels in the clear (paper §3.2)."""

    policy: PolicyNode
    c_tilde: Fq2  # M · ê(g,g)^{αs}
    c: Point  # h^s
    leaf_components: tuple[tuple[str, Point, Point], ...]  # (att(y), C_y, C'_y) in leaf order


_ATTRIBUTE_MEMO_SIZE = 1024  # hashed attribute points kept per CPABE instance


class CPABE:
    """The BSW07 scheme over a :class:`PairingGroup`."""

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
        master = CPABEMasterKey(beta=beta, g_alpha=g * alpha)
        return public, master

    # -- KeyGen ---------------------------------------------------------------

    @instrument("abe.keygen")
    def keygen(self, master: CPABEMasterKey, attributes: set[str]) -> CPABESecretKey:
        if not attributes:
            raise PolicyError("attribute set must be non-empty")
        group = self.group
        r = group.random_zr()
        beta_inv = pow(master.beta, -1, group.order)
        d = (master.g_alpha + group.generator * r) * beta_inv
        components: dict[str, tuple[Point, Point]] = {}
        g_r = group.generator * r
        for attribute in sorted(attributes):
            r_j = group.random_zr()
            d_j = g_r + self._hash_attribute(attribute) * r_j
            d_j_prime = group.generator * r_j
            components[attribute] = (d_j, d_j_prime)
        return CPABESecretKey(frozenset(attributes), d, components)

    # -- Delegate (BSW07 §4.2) ---------------------------------------------------

    def delegate(
        self, public: CPABEPublicKey, key: CPABESecretKey, subset: set[str]
    ) -> CPABESecretKey:
        """Derive a key for ``subset ⊆ attributes`` without the master key.

        Part of the original BSW07 scheme: a client can hand a colleague a
        strictly weaker key.  The derived key is re-randomized (fresh
        ``r̃``), so delegated keys collude with neither their parent nor
        each other.
        """
        if not subset:
            raise PolicyError("delegated attribute set must be non-empty")
        missing = subset - set(key.attributes)
        if missing:
            raise PolicyError(f"cannot delegate attributes not held: {sorted(missing)}")
        group = self.group
        r_tilde = group.random_zr()
        d = key.d + public.f * r_tilde  # g^{(α+r+r̃)/β}
        g_r_tilde = group.generator * r_tilde
        components: dict[str, tuple[Point, Point]] = {}
        for attribute in sorted(subset):
            r_k = group.random_zr()
            d_j, d_j_prime = key.components[attribute]
            components[attribute] = (
                d_j + g_r_tilde + self._hash_attribute(attribute) * r_k,
                d_j_prime + group.generator * r_k,
            )
        return CPABESecretKey(frozenset(subset), d, components)

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
        """Recover the GT message; raises :class:`PolicyNotSatisfiedError`."""
        attributes = set(key.attributes)
        if not ciphertext.policy.satisfied_by(attributes):
            raise PolicyNotSatisfiedError(
                f"attributes {sorted(attributes)} do not satisfy policy {ciphertext.policy}"
            )
        leaf_map = self._leaf_component_map(ciphertext)
        a = self._decrypt_node(ciphertext.policy, key, attributes, leaf_map, counter=[0])
        # ê(C, D) = ê(g,g)^{s(α+r)}; A = ê(g,g)^{rs}  →  M = C̃·A / ê(C, D)
        e_c_d = self.group.pair(ciphertext.c, key.d)
        return ciphertext.c_tilde * a * e_c_d.inverse()

    # -- internals -------------------------------------------------------------------

    def _hash_attribute(self, attribute: str) -> Point:
        """``H(attribute)``, memoised: the same few attribute strings recur on
        every encrypt/keygen/delegate and each hash is a cofactor multiplication."""
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

    def _leaf_component_map(self, ciphertext: CPABECiphertext) -> list[tuple[str, Point, Point]]:
        leaves = ciphertext.policy.leaves()
        if len(leaves) != len(ciphertext.leaf_components):
            raise PolicyError("ciphertext leaf components do not match policy shape")
        return list(ciphertext.leaf_components)

    def _decrypt_node(
        self,
        node: PolicyNode,
        key: CPABESecretKey,
        attributes: set[str],
        leaf_map: list[tuple[str, Point, Point]],
        counter: list[int],
    ) -> Fq2:
        """Return ê(g,g)^{r·q_node(0)} for a satisfied subtree.

        ``counter`` tracks the traversal position into ``leaf_map`` so each
        leaf consumes its own ciphertext components even when attributes repeat.
        """
        group = self.group
        if node.is_leaf:
            attribute, c_y, c_y_prime = leaf_map[counter[0]]
            counter[0] += 1
            d_j, d_j_prime = key.components[attribute]
            # ê(D_j, C_y) / ê(D'_j, C'_y) = ê(g,g)^{r·q_y(0)}
            return group.multi_pair([(d_j, c_y), (-d_j_prime, c_y_prime)])
        picked = set(node.satisfying_children(attributes))
        factors: list[tuple[int, Fq2]] = []
        for index, child in enumerate(node.children, start=1):
            if index in picked:
                factors.append((index, self._decrypt_node(child, key, attributes, leaf_map, counter)))
            else:
                self._skip_leaves(child, counter)
        indices = [index for index, _ in factors]
        result = Fq2.one(group.params.q)
        for index, value in factors:
            result = result * (value ** self._lagrange(index, indices))
        return result

    def _skip_leaves(self, node: PolicyNode, counter: list[int]) -> None:
        counter[0] += len(node.leaves())

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
