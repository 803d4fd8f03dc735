"""Access-policy trees and the policy expression language for CP-ABE.

A policy is a tree of threshold gates over attribute leaves, exactly as in
Bethencourt-Sahai-Waters (the construction P3S uses, paper §3.2):

* ``AND`` is an n-of-n gate, ``OR`` a 1-of-n gate, and ``k of (...)`` a
  general threshold gate.
* Leaves name attributes (e.g. ``"org:acme"``, ``"role:analyst"``).

The textual language accepted by :func:`parse_policy`::

    role:analyst and (org:acme or org:partner)
    2 of (clearance:secret, country:us, country:uk)

Keywords ``and`` / ``or`` / ``of`` are case-insensitive; attributes may
contain letters, digits, ``_ : . -``.  The paper notes BSW07 does not
support NOT; neither do we (the standard workaround — a complementary
attribute — is available at the application layer).

As the paper observes (§3.2), **the policy is not hidden**: it travels in
the clear with the ciphertext.  The middleware therefore only puts
"safe to disclose" attributes in policies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import PolicyError

__all__ = ["PolicyNode", "parse_policy", "policy_to_string"]


@dataclass(frozen=True)
class PolicyNode:
    """One node of a policy tree.

    A leaf has ``attribute`` set and no children.  A gate has ``threshold``
    ``k`` and ``children`` (satisfied when ≥ k children are satisfied).
    """

    attribute: str | None = None
    threshold: int = 0
    children: tuple["PolicyNode", ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.is_leaf:
            if self.threshold or self.children:
                raise PolicyError("leaf nodes cannot carry threshold/children")
        else:
            if not self.children:
                raise PolicyError("gate nodes need at least one child")
            if not 1 <= self.threshold <= len(self.children):
                raise PolicyError(
                    f"threshold {self.threshold} out of range for {len(self.children)} children"
                )

    # -- constructors ----------------------------------------------------------

    @classmethod
    def leaf(cls, attribute: str) -> "PolicyNode":
        return cls(attribute=attribute)

    @classmethod
    def gate(cls, threshold: int, children: list["PolicyNode"]) -> "PolicyNode":
        return cls(attribute=None, threshold=threshold, children=tuple(children))

    # -- structure --------------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return self.attribute is not None

    def leaves(self) -> list["PolicyNode"]:
        """All leaves in deterministic (left-to-right) order."""
        if self.is_leaf:
            return [self]
        result: list[PolicyNode] = []
        for child in self.children:
            result.extend(child.leaves())
        return result

    def attributes(self) -> set[str]:
        return {leaf.attribute for leaf in self.leaves()}

    # -- satisfaction --------------------------------------------------------------

    def satisfied_by(self, attributes: set[str]) -> bool:
        if self.is_leaf:
            return self.attribute in attributes
        hits = sum(1 for child in self.children if child.satisfied_by(attributes))
        return hits >= self.threshold

    def satisfying_children(self, attributes: set[str]) -> list[int]:
        """1-based indices of exactly ``threshold`` satisfied children.

        Used by CP-ABE decryption to prune the recursion; raises
        :class:`PolicyError` on a leaf or when unsatisfied.
        """
        if self.is_leaf:
            raise PolicyError("satisfying_children on a leaf")
        picked = [
            index
            for index, child in enumerate(self.children, start=1)
            if child.satisfied_by(attributes)
        ]
        if len(picked) < self.threshold:
            raise PolicyError("gate not satisfied")
        return picked[: self.threshold]

    def __str__(self) -> str:
        return policy_to_string(self)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)|(?P<word>[A-Za-z0-9_:.\-]+))"
)


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise PolicyError(f"unexpected character at position {pos}: {text[pos]!r}")
        pos = match.end()
        for name in ("lparen", "rparen", "comma", "word"):
            value = match.group(name)
            if value is not None:
                tokens.append(value)
                break
    return tokens


class _Parser:
    """Recursive-descent parser for the policy grammar.

    ``expr := term (('and'|'or') term)*`` with equal-operator folding —
    mixing ``and`` and ``or`` at one level without parentheses is rejected
    to avoid silent precedence surprises.
    """

    def __init__(self, tokens: list[str]):
        self._tokens = tokens
        self._pos = 0

    def parse(self) -> PolicyNode:
        node = self._expr()
        if self._pos != len(self._tokens):
            raise PolicyError(f"trailing tokens after policy: {self._tokens[self._pos:]}")
        return node

    # -- grammar -------------------------------------------------------------

    def _peek(self) -> str | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise PolicyError("unexpected end of policy expression")
        self._pos += 1
        return token

    def _expr(self) -> PolicyNode:
        children = [self._term()]
        operator: str | None = None
        while True:
            token = self._peek()
            if token is None or token.lower() not in ("and", "or"):
                break
            word = self._next().lower()
            if operator is None:
                operator = word
            elif word != operator:
                raise PolicyError(
                    "mixing 'and' and 'or' without parentheses is ambiguous; add parentheses"
                )
            children.append(self._term())
        if len(children) == 1:
            return children[0]
        threshold = len(children) if operator == "and" else 1
        return PolicyNode.gate(threshold, children)

    def _term(self) -> PolicyNode:
        token = self._next()
        if token == "(":
            node = self._expr()
            if self._next() != ")":
                raise PolicyError("expected ')'")
            return node
        if token == ")" or token == ",":
            raise PolicyError(f"unexpected {token!r}")
        if token.isdigit():
            # threshold gate: INT of ( expr , expr , ... )
            threshold = int(token)
            if self._next().lower() != "of":
                raise PolicyError("expected 'of' after threshold count")
            if self._next() != "(":
                raise PolicyError("expected '(' after 'of'")
            children = [self._expr()]
            while self._peek() == ",":
                self._next()
                children.append(self._expr())
            if self._next() != ")":
                raise PolicyError("expected ')' closing threshold gate")
            if not 1 <= threshold <= len(children):
                raise PolicyError(
                    f"threshold {threshold} invalid for {len(children)} alternatives"
                )
            return PolicyNode.gate(threshold, children)
        if token.lower() in ("and", "or", "of"):
            raise PolicyError(f"keyword {token!r} cannot be an attribute")
        return PolicyNode.leaf(token)


def parse_policy(text: str | PolicyNode) -> PolicyNode:
    """Parse a policy expression (idempotent on already-built trees)."""
    if isinstance(text, PolicyNode):
        return text
    tokens = _tokenize(text)
    if not tokens:
        raise PolicyError("empty policy expression")
    return _Parser(tokens).parse()


def policy_to_string(node: PolicyNode) -> str:
    """Render a policy tree back to canonical expression text."""
    if node.is_leaf:
        return node.attribute
    rendered = [policy_to_string(child) for child in node.children]
    wrapped = [f"({text})" if not child.is_leaf else text for child, text in zip(node.children, rendered)]
    if node.threshold == len(node.children):
        return " and ".join(wrapped)
    if node.threshold == 1:
        return " or ".join(wrapped)
    return f"{node.threshold} of ({', '.join(rendered)})"
