"""Hostile bytes at the DS's two registration decoders and the RS's item
decoder (ROADMAP item 1).

A corrupt ``tokens``, ``subs`` or ``items`` record must fail recovery with
a :class:`~repro.errors.CorruptRecordError`, never another exception, and
a record it accepts must re-encode to the very bytes it came from.
"""

import pytest
from hypothesis import example, given, settings

from repro.errors import CorruptRecordError, ReproError
from repro.store.codec import (
    decode_item,
    decode_sub_key,
    decode_token,
    encode_item,
    encode_token,
    sub_key,
)

from ..hostile import hostile

TOKENS = [encode_token(name, token) for name, token in (("alice", b"\x00tok"), ("", b""), ("élan", b"t"))]
ITEMS = [encode_item(1.5, 31.5, 1.7e9, b"ciphertext"), encode_item(0.0, -0.0, 1e300, b"")]
SUB_KEYS = [sub_key(topic, client) for topic, client in (("news", "bob"), ("", ""), ("ü", "x\x00y"))]


@settings(max_examples=300, deadline=None)
@given(hostile(TOKENS, lambda blob: [(0, ">H")]))
@example(b"\x00\x09ab")  # names 9 bytes, holds 2: was accepted as ("ab", b"")
def test_hostile_token_registration_round_trips_or_is_rejected(blob):
    try:
        name, token = decode_token(blob)
    except ReproError:
        return
    assert encode_token(name, token) == blob


@settings(max_examples=300, deadline=None)
@given(hostile(SUB_KEYS, lambda blob: []))
@example(b"\xff\x00a")  # not UTF-8: escaped as UnicodeDecodeError
def test_hostile_subscription_key_round_trips_or_is_rejected(blob):
    try:
        topic, client = decode_sub_key(blob)
    except ReproError:
        return
    assert sub_key(topic, client) == blob


@settings(max_examples=300, deadline=None)
@given(hostile(ITEMS, lambda blob: []))
def test_hostile_stored_item_round_trips_or_is_rejected(blob):
    try:
        stored_at, expires_at, wall_stored_at, ciphertext = decode_item(blob)
    except ReproError:
        return
    assert encode_item(stored_at, expires_at, wall_stored_at, ciphertext) == blob


@pytest.mark.parametrize(
    "decode,blob", [(decode_token, b"\x00\x09ab"), (decode_sub_key, b"\xff\x00a")]
)
def test_the_two_pinned_shapes_are_corrupt_records(decode, blob):
    with pytest.raises(CorruptRecordError):
        decode(blob)
