"""Bounded reads over bytes a peer chose, and strict JSON objects.

Every binary decoder of untrusted input reads through a :class:`Reader`:
a read returns what it asked for or raises the
:class:`~repro.errors.ReproError` subclass the decoder named, never a
short value, a ``struct.error`` or a ``UnicodeDecodeError``, and
:meth:`Reader.end` refuses trailing bytes.  :func:`parse_json` and
:func:`expect_object` do the same for the JSON request bodies.
"""

from __future__ import annotations

import json
import struct
from typing import Any

from .errors import ReproError

__all__ = ["Reader", "prefixed", "parse_json", "expect_object"]

_U8, _U16, _U32, _U64, _F64 = map(struct.Struct, (">B", ">H", ">I", ">Q", ">d"))


def prefixed(data: bytes) -> bytes:
    """``u32 length || data``, the field :meth:`Reader.prefixed` reads."""
    return len(data).to_bytes(4, "big") + data


class Reader:
    """A cursor over ``data`` whose every failure raises ``error``."""

    __slots__ = ("data", "pos", "error")

    def __init__(self, data: bytes, error: type[ReproError]):
        self.data = data
        self.pos = 0
        self.error = error

    @property
    def remaining(self) -> int:
        return len(self.data) - self.pos

    def take(self, n: int) -> bytes:
        start, end = self.pos, self.pos + n
        if n < 0 or end > len(self.data):
            raise self.error(f"truncated at byte {start}: {n} wanted, {self.remaining} left")
        self.pos = end
        return self.data[start:end]

    def uint(self, width: int) -> int:
        return int.from_bytes(self.take(width), "big")

    def _fixed(self, layout: struct.Struct) -> Any:
        start, size = self.pos, layout.size
        if start + size > len(self.data):
            raise self.error(f"truncated at byte {start}: {size} wanted, {self.remaining} left")
        self.pos = start + size
        return layout.unpack_from(self.data, start)[0]

    def u8(self) -> int:
        return self._fixed(_U8)

    def u16(self) -> int:
        return self._fixed(_U16)

    def u32(self) -> int:
        return self._fixed(_U32)

    def u64(self) -> int:
        return self._fixed(_U64)

    def f64(self) -> float:
        return self._fixed(_F64)

    def prefixed(self) -> bytes:
        return self.take(self.u32())

    def utf8(self, n: int) -> str:
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"text is not UTF-8: {exc}") from None

    def rest(self) -> bytes:
        return self.take(self.remaining)

    def count(self, n: int, item_size: int) -> int:
        """``n``, once ``n`` items of at least ``item_size`` bytes each fit
        in what is left: a count is checked before anything is allocated."""
        if n * item_size > self.remaining:
            raise self.error(f"{n} items of {item_size}+ bytes cannot fit in {self.remaining}")
        return n

    def end(self) -> None:
        if self.remaining:
            raise self.error(f"{self.remaining} trailing bytes")


def parse_json(text: str | bytes, error: type[ReproError]) -> Any:
    """The JSON value ``text`` (UTF-8 if bytes) holds, no object repeating
    a key, or ``error``."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise error(f"malformed JSON: {exc}") from None


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    if len(value := dict(pairs)) != len(pairs):
        raise ValueError(f"repeated key among {[key for key, _ in pairs]}")
    return value


def expect_object(
    value: Any, fields: dict[str, type | tuple[type, ...]], what: str, error: type[ReproError]
) -> dict:
    """``value`` if it is an object with exactly the keys of ``fields``,
    each value an instance of its type (a bool is no number), or ``error``."""
    if not isinstance(value, dict) or value.keys() != fields.keys():
        raise error(f"a {what} is an object with exactly the keys {', '.join(fields)}")
    for key, kinds in fields.items():
        item = value[key]
        if not isinstance(item, kinds) or (isinstance(item, bool) and kinds is not bool):
            raise error(f"a {what}'s {key} is of the wrong type: {item!r}")
    return value
