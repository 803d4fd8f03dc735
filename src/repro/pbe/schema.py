"""Metadata space, published metadata, and subscriber interests.

The P3S functional model (paper §2): matching uses "metadata associated
with published items, described as attribute-value pairs chosen from a
fixed, predefined space of attributes and their values (metadata space)";
"subscriber interest is expressed as a conjunctive predicate over the
attribute-value pairs", with ``*`` wildcards allowed per attribute.

:class:`MetadataSchema` is the machine-readable description of that space
(it is what the ARA hands to publishers and subscribers at registration —
"the PBE metadata format, i.e. field/value information", §4.3).  It maps:

* full metadata dicts → HVE attribute vectors, one symbol a position,
* :class:`Interest` predicates → HVE interest vectors (``None`` = ``*``).

Its *encoding* decides the positions.  ``"symbol"`` (the default) gives
each attribute one position whose alphabet is the attribute's domain, so a
16-valued attribute is one position of 16 symbols.  ``"bit"`` is the
paper's §3.1 choice: each attribute spreads over ``⌈log₂|domain|⌉``
binary positions, and a wildcard spans all of them.  Both express the same
predicates, because an interest only ever wildcards whole attributes; the
symbol encoding does it with fewer positions, so fewer pairings a match
and fewer points a ciphertext.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..errors import SchemaError
from ..reader import expect_object, parse_json
from .encoding import bits_needed, encode_value, wildcard_bits

__all__ = ["ANY", "AttributeSpec", "MetadataSchema", "Interest", "ENCODINGS"]

ENCODINGS = ("symbol", "bit")


class _Any:
    """Sentinel for a wildcard value in an interest predicate."""

    _instance: "_Any | None" = None

    def __new__(cls) -> "_Any":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ANY"


ANY = _Any()


@dataclass(frozen=True)
class AttributeSpec:
    """One attribute of the metadata space: a name and its value domain."""

    name: str
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise SchemaError(f"attribute {self.name!r} needs at least 2 values")
        if len(set(self.values)) != len(self.values):
            raise SchemaError(f"attribute {self.name!r} has duplicate values")

    @property
    def bits(self) -> int:
        return bits_needed(len(self.values))

    def index_of(self, value: str) -> int:
        try:
            return self.values.index(value)
        except ValueError:
            raise SchemaError(
                f"value {value!r} not in domain of attribute {self.name!r}: {self.values}"
            ) from None


@dataclass(frozen=True)
class Interest:
    """A conjunctive predicate over the metadata space.

    Maps attribute name → required value, or :data:`ANY` for a wildcard.
    Attributes omitted from ``constraints`` default to :data:`ANY`.
    """

    constraints: dict[str, object] = field(default_factory=dict)

    def is_all_wildcard(self) -> bool:
        return all(value is ANY for value in self.constraints.values()) or not self.constraints

    def matches(self, metadata: dict[str, str]) -> bool:
        """Plaintext evaluation (the baseline broker and tests use this)."""
        for name, wanted in self.constraints.items():
            if wanted is ANY:
                continue
            if metadata.get(name) != wanted:
                return False
        return True

    def describe(self) -> str:
        if not self.constraints:
            return "<match-all>"
        parts = [
            f"{name}={'*' if value is ANY else value}"
            for name, value in sorted(self.constraints.items())
        ]
        return " AND ".join(parts)

    def to_json(self) -> str:
        """Wire form for token requests ('*' stands for :data:`ANY`)."""
        return json.dumps(
            {name: ("*" if value is ANY else value) for name, value in self.constraints.items()},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Interest":
        raw = parse_json(text, SchemaError)
        if not isinstance(raw, dict):
            raise SchemaError("interest JSON must be an object")
        return cls({name: (ANY if value == "*" else value) for name, value in raw.items()})


class MetadataSchema:
    """An ordered, fixed metadata space.

    Args:
        attributes: the attribute specs, in canonical order (the order
            defines the positions in the HVE vectors and must be shared by
            all participants — the ARA distributes it).
        encoding: ``"symbol"`` (one position per attribute) or ``"bit"``
            (the paper's binary alphabet); see the module docstring.
    """

    def __init__(self, attributes: list[AttributeSpec], encoding: str = "symbol"):
        if not attributes:
            raise SchemaError("metadata schema needs at least one attribute")
        names = [spec.name for spec in attributes]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate attribute names in schema")
        if encoding not in ENCODINGS:
            raise SchemaError(f"unknown schema encoding {encoding!r}")
        self.attributes = tuple(attributes)
        self.encoding = encoding
        self._by_name = {spec.name: spec for spec in attributes}

    # -- shape ---------------------------------------------------------------

    @property
    def alphabet_sizes(self) -> tuple[int, ...]:
        """The HVE alphabet size of every position, in order."""
        if self.encoding == "bit":
            return (2,) * sum(spec.bits for spec in self.attributes)
        return tuple(len(spec.values) for spec in self.attributes)

    @property
    def vector_length(self) -> int:
        """The HVE vector length n: Σ bits(attribute) under ``"bit"``, the
        attribute count under ``"symbol"``."""
        return len(self.alphabet_sizes)

    def attribute(self, name: str) -> AttributeSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown attribute {name!r}") from None

    # -- encoding ----------------------------------------------------------------

    def _positions(self, spec: AttributeSpec, index: int | None) -> list[int | None]:
        """One attribute's positions for value ``index`` (``None`` = ``*``)."""
        if self.encoding == "symbol":
            return [index]
        size = len(spec.values)
        return wildcard_bits(size) if index is None else encode_value(index, size)

    def encode_metadata(self, metadata: dict[str, str]) -> list[int]:
        """Full metadata → attribute vector, one symbol a position.

        Every schema attribute must be present: published items carry a
        complete description (the paper's model has the publisher choose
        values from the fixed space for each attribute).
        """
        unknown = set(metadata) - set(self._by_name)
        if unknown:
            raise SchemaError(f"metadata has attributes outside the schema: {sorted(unknown)}")
        symbols: list[int] = []
        for spec in self.attributes:
            if spec.name not in metadata:
                raise SchemaError(f"metadata missing attribute {spec.name!r}")
            symbols.extend(self._positions(spec, spec.index_of(metadata[spec.name])))
        return symbols

    def encode_interest(self, interest: Interest) -> list[int | None]:
        """Interest → interest vector (None = wildcard)."""
        unknown = set(interest.constraints) - set(self._by_name)
        if unknown:
            raise SchemaError(f"interest has attributes outside the schema: {sorted(unknown)}")
        if interest.is_all_wildcard():
            raise SchemaError(
                "all-wildcard interests are rejected (paper §2: honest clients "
                "do not subscribe with wildcards for all attributes)"
            )
        symbols: list[int | None] = []
        for spec in self.attributes:
            wanted = interest.constraints.get(spec.name, ANY)
            symbols.extend(self._positions(spec, None if wanted is ANY else spec.index_of(wanted)))
        return symbols

    # -- (de)serialization — the ARA ships the schema to clients -----------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "encoding": self.encoding,
                "attributes": [
                    {"name": spec.name, "values": list(spec.values)} for spec in self.attributes
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "MetadataSchema":
        """The schema :meth:`to_json` wrote, or :class:`SchemaError`: every
        name and value a string, every domain a list, no key missing,
        repeated or unknown, and a known encoding."""
        raw = expect_object(
            parse_json(text, SchemaError),
            {"encoding": str, "attributes": list},
            "schema",
            SchemaError,
        )
        specs = []
        for entry in raw["attributes"]:
            expect_object(entry, {"name": str, "values": list}, "attribute", SchemaError)
            name, values = entry["name"], entry["values"]
            if not all(isinstance(item, str) for item in values):
                raise SchemaError(f"attribute {name!r}: values must be strings")
            specs.append(AttributeSpec(name, tuple(values)))
        return cls(specs, raw["encoding"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetadataSchema):
            return NotImplemented
        return (self.attributes, self.encoding) == (other.attributes, other.encoding)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetadataSchema({[spec.name for spec in self.attributes]}, "
            f"encoding={self.encoding!r}, n={self.vector_length})"
        )
