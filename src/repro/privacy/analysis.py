"""The P3S privacy analysis (§6.1): executable attacks and their mitigation.

The structural half — the gadgets, their knowledge closure and the
threat models — is a model the tests check the may-know table against
(``tests/privacy/structural.py``); no entry point runs it.

1. **Executable attacks** — the two weaknesses the gadget reveals are
   implemented against the *real* HVE scheme:
   :func:`token_probing_attack` (no token security: a token plus the
   ability to encrypt recovers the interest vector) and
   :func:`token_accumulation_attack` (a large token set recovers the
   attribute vector of any ciphertext).

2. **Mitigation** — :func:`with_epoch_attribute` implements the paper's
   proposed fix ("time-stamp publications and tokens, making tokens
   active only within a configurable period of time ... using time as an
   additional metadata attribute"), giving token expiry/revocation.
"""

from __future__ import annotations

from ..errors import SchemaError
from ..pbe.hve import HVE, HVECiphertext, HVEPublicKey, HVEToken
from ..pbe.schema import ANY, AttributeSpec, Interest, MetadataSchema

__all__ = [
    "token_probing_attack",
    "token_accumulation_attack",
    "with_epoch_attribute",
    "epoch_of",
]


# ---------------------------------------------------------------------------
# 1. Executable attacks (real crypto)
# ---------------------------------------------------------------------------

def token_probing_attack(
    hve: HVE,
    public_key: HVEPublicKey,
    token: HVEToken,
    schema: MetadataSchema,
) -> Interest:
    """Recover a token's interest from encrypt capability alone (§6.1).

    "If a participant is able to obtain a token t_y and create encrypted
    metadata, it will be able to reveal y by creating encrypted metadata
    for all attribute vectors and test them against the token."

    Strategy: exhaustively scan the metadata space for one matching
    vector, then flip each attribute to a different value — if the token
    still matches, that attribute is a wildcard.  Returns the recovered
    :class:`Interest`.  Raises :class:`SchemaError` if no vector matches
    (not a token from this schema/key).
    """
    probe = b"probe"

    def matches(metadata: dict[str, str]) -> bool:
        ciphertext = hve.encrypt(public_key, schema.encode_metadata(metadata), probe)
        return hve.query(token, ciphertext) is not None

    base = _find_matching_metadata(schema, matches)
    if base is None:
        raise SchemaError("token matches nothing in this metadata space")
    constraints: dict[str, object] = {}
    for spec in schema.attributes:
        alternative = next(v for v in spec.values if v != base[spec.name])
        flipped = dict(base)
        flipped[spec.name] = alternative
        if matches(flipped):
            constraints[spec.name] = ANY
        else:
            constraints[spec.name] = base[spec.name]
    return Interest(constraints)


def _find_matching_metadata(schema: MetadataSchema, matches) -> dict[str, str] | None:
    """Depth-first scan of the metadata space for one matching assignment."""

    def recurse(index: int, partial: dict[str, str]) -> dict[str, str] | None:
        if index == len(schema.attributes):
            return dict(partial) if matches(partial) else None
        spec = schema.attributes[index]
        for value in spec.values:
            partial[spec.name] = value
            found = recurse(index + 1, partial)
            if found is not None:
                return found
        del partial[spec.name]
        return None

    return recurse(0, {})


def token_accumulation_attack(
    hve: HVE,
    accumulated_tokens: dict[tuple[str, str], HVEToken],
    ciphertext: HVECiphertext,
    schema: MetadataSchema,
) -> dict[str, str]:
    """Recover a ciphertext's metadata from a large token collection (§6.1).

    "If a subscriber can subscribe to all or a significant part of the
    space of all possible subscription interests ... he can test any given
    ciphertext against all tokens to reveal the attribute vector x."

    ``accumulated_tokens`` maps ``(attribute, value)`` to a token for the
    single-attribute equality predicate — the realistic accumulation
    pattern (one subscription per attribute value over time).
    """
    recovered: dict[str, str] = {}
    for spec in schema.attributes:
        for value in spec.values:
            token = accumulated_tokens.get((spec.name, value))
            if token is not None and hve.query(token, ciphertext) is not None:
                recovered[spec.name] = value
                break
    return recovered


# ---------------------------------------------------------------------------
# 2. Mitigation: time-stamped tokens (epoch attribute)
# ---------------------------------------------------------------------------

def with_epoch_attribute(schema: MetadataSchema, num_epochs: int = 16) -> MetadataSchema:
    """Extend a schema with a rotating ``epoch`` attribute.

    Publishers stamp each item with the current epoch; the PBE-TS pins
    every issued token to the epoch of issue (never wildcard).  A token
    therefore stops matching once the epoch rotates — the paper's token
    revocation mechanism, at the cost of re-requesting tokens each epoch
    and time-synchronised clients.
    """
    if num_epochs < 2:
        raise SchemaError("need at least 2 epochs")
    epoch_values = tuple(f"e{i}" for i in range(num_epochs))
    return MetadataSchema(
        list(schema.attributes) + [AttributeSpec("epoch", epoch_values)], schema.encoding
    )


def epoch_of(now: float, epoch_length_s: float, num_epochs: int = 16) -> str:
    """The epoch value for simulation time ``now``."""
    return f"e{int(now // epoch_length_s) % num_epochs}"
