"""Hostile bytes at the two sealed-reply decoders (ROADMAP item 1).

A subscriber opens the RS's retrieval reply and the PBE-TS's token reply
under its own ``K_s``, and both reach it through the anonymizer.  Two
properties: a sealed reply mutated by truncation, a bit flip or a splice
opens to the body that was sealed or is rejected with a
:class:`ReproError` subclass; and any reply plaintext sealed under the
right key is the success body or that server's refusal — never another
exception.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.messages import error_reply, ok_reply
from repro.core.pbe_ts import decode_token_response
from repro.core.rs import decode_retrieval_response
from repro.crypto.symmetric import SecretBox
from repro.errors import ReproError, RetrievalError, TokenRequestError

from ..hostile import hostile

KEY = bytes(range(32))
BOX = SecretBox(KEY)
BODIES = (b"token or ciphertext bytes", b"")
PLAINTEXTS = [ok_reply(body) for body in BODIES] + [error_reply("no such item"), b""]
SEALED = [BOX.seal(plaintext) for plaintext in PLAINTEXTS]


@pytest.mark.parametrize(
    "decode,refusal",
    [(decode_retrieval_response, RetrievalError), (decode_token_response, TokenRequestError)],
)
@settings(max_examples=150, deadline=None)
@given(blob=hostile(SEALED, lambda blob: []))
def test_hostile_sealed_reply_opens_or_is_rejected(decode, refusal, blob):
    try:
        body = decode(KEY, blob)
    except ReproError:
        return
    assert body in BODIES and blob in SEALED


@pytest.mark.parametrize(
    "decode,refusal",
    [(decode_retrieval_response, RetrievalError), (decode_token_response, TokenRequestError)],
)
@settings(max_examples=150, deadline=None)
@given(plaintext=st.sampled_from(PLAINTEXTS) | st.binary(max_size=64))
def test_hostile_reply_plaintext_is_a_body_or_the_refusal(decode, refusal, plaintext):
    try:
        body = decode(KEY, BOX.seal(plaintext))
    except refusal:
        assert plaintext[:1] != ok_reply(b"")
        return
    assert ok_reply(body) == plaintext
