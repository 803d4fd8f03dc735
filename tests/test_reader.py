"""The bounded byte reader and the strict-object check under every decoder.

One property over the reader itself: for any bytes and any sequence of
reads, each read returns a value of its size or raises exactly the error
class the reader was given — never ``struct.error``, ``IndexError``,
``UnicodeDecodeError`` or a short value.  The strict-object helpers get
theirs over hostile JSON text.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError, SerializationError, TransportError
from repro.reader import Reader, expect_object, parse_json

from .hostile import hostile

READS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["u8", "u16", "u32", "u64", "f64", "prefixed", "rest", "end"])),
        st.tuples(st.sampled_from(["take", "utf8", "uint"]), st.integers(0, 70)),
        st.tuples(st.just("count"), st.integers(0, 2**32), st.integers(0, 64)),
    ),
    max_size=12,
)
WIDTHS = {"u8": 1, "u16": 2, "u32": 4, "u64": 8, "f64": 8}


@settings(max_examples=500, deadline=None)
@given(data=st.binary(max_size=64), reads=READS)
def test_every_read_returns_its_value_or_raises_the_given_error(data, reads):
    reader = Reader(data, TransportError)
    for name, *args in reads:
        before = reader.remaining
        try:
            value = getattr(reader, name)(*args)
        except ReproError as exc:
            assert type(exc) is TransportError
            return  # a decoder gives up at its first failed read
        used = before - reader.remaining
        if name in WIDTHS:
            assert used == WIDTHS[name]
        elif name in ("take", "uint", "utf8"):
            assert used == args[0] and (name != "take" or len(value) == args[0])
        elif name == "prefixed":
            assert used == 4 + len(value)
        elif name == "rest":
            assert reader.remaining == 0 and len(value) == used
        elif name == "count":
            assert used == 0 and value * args[1] <= reader.remaining
        else:
            assert before == 0


def test_count_refuses_a_huge_count_before_allocating():
    reader = Reader(b"\x00" * 10, SerializationError)
    with pytest.raises(SerializationError, match="cannot fit"):
        reader.count(0xFFFFFFFF, 64)
    assert reader.count(0, 64) == 0 and reader.remaining == 10


def test_end_refuses_leftover_bytes():
    reader = Reader(b"\x00\x01\x02", SerializationError)
    reader.u16()
    with pytest.raises(SerializationError, match="1 trailing"):
        reader.end()
    reader.u8()
    reader.end()


FIELDS = {"ks": str, "n": int, "t": (int, float, type(None))}
OBJECTS = [
    json.dumps(value).encode()
    for value in ({"ks": "aa", "n": 1, "t": None}, {"ks": "", "n": -5, "t": 2.5}, [1, {"n": 2}])
]


@settings(max_examples=300, deadline=None)
@given(hostile(OBJECTS, lambda blob: []))
def test_hostile_json_object_is_exact_or_rejected(blob):
    try:
        value = expect_object(parse_json(blob, TransportError), FIELDS, "request", TransportError)
    except TransportError:
        return
    assert value.keys() == FIELDS.keys()
    assert all(isinstance(value[key], kinds) for key, kinds in FIELDS.items())
    assert not isinstance(value["n"], bool)


@pytest.mark.parametrize(
    "text",
    [
        b'{"ks": "a", "ks": "b", "n": 1, "t": null}',  # a repeated key
        b'{"ks": "a", "n": true, "t": null}',  # a bool is no number
        b'{"ks": "a", "n": 1}',  # a key missing
        b'{"ks": "a", "n": 1, "t": null, "x": 0}',  # a key extra
        b"\xff{}",  # not UTF-8
        b"[" * 100_000,  # nested past the recursion limit
    ],
)
def test_the_strict_object_refuses(text):
    with pytest.raises(TransportError):
        expect_object(parse_json(text, TransportError), FIELDS, "request", TransportError)
