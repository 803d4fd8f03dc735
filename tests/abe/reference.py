"""The textbook BSW07 decryption, kept as the reference ``CPABE.decrypt``
is compared against.

It shares no code with :mod:`repro.abe.bsw07`'s decryption: a cold
``tate_pairing`` quotient per leaf, table-free square-and-multiply for the
Lagrange recombination at every gate, its own Lagrange arithmetic, no cache.
"""

from repro.crypto.field import Fq2
from repro.crypto.pairing import tate_pairing

from ..crypto.reference import plain_pow


def reference_decrypt(group, key, ciphertext) -> Fq2:
    """``C̃ · A / ê(C, D)`` with ``A = DecryptNode(root)`` (BSW07 §4.2)."""
    components = iter(ciphertext.leaf_components)
    a = _decrypt_node(group, ciphertext.policy, key, components)
    return ciphertext.c_tilde * a * tate_pairing(ciphertext.c, key.d).inverse()


def _decrypt_node(group, node, key, components):
    """``ê(g,g)^{r·q_node(0)}``, or ``None`` for an unsatisfied subtree.

    Every leaf consumes its own ciphertext components, used or not."""
    if node.is_leaf:
        attribute, c_y, c_y_prime = next(components)
        if attribute not in key.attributes:
            return None
        d_j, d_j_prime = key.components[attribute]
        return tate_pairing(d_j, c_y) * tate_pairing(d_j_prime, c_y_prime).inverse()
    values = {
        index: value
        for index, child in enumerate(node.children, start=1)
        if (value := _decrypt_node(group, child, key, components)) is not None
    }
    if len(values) < node.threshold:
        return None
    chosen = sorted(values)[: node.threshold]
    result = Fq2.one(group.params.q)
    for i in chosen:
        numerator = denominator = 1
        for j in chosen:
            if j != i:
                numerator *= -j
                denominator *= i - j
        exponent = numerator * pow(denominator, -1, group.order) % group.order
        result = result * plain_pow(values[i], exponent)
    return result
