"""Sealed values written before the SecretBox format change: reject, no migration.

``V1_SEALED`` is one value sealed by the parent commit's box (ChaCha20
keystream, ``secretbox-enc``/``secretbox-mac`` sub-keys) with::

    box = SecretBox(KEY)
    with frozen_nonces(b"p3s-store-fixture"):
        seal_value(box, NAMESPACE, RECORD_KEY, V1_PLAINTEXT)

The current box derives its MAC key under a versioned label, so the old
tag no longer verifies and the WAL engine surfaces the record as
``CorruptRecordError`` — it is never XORed with the new keystream and
handed back as noise.
"""

import pytest

from repro.errors import CorruptRecordError
from repro.store import WalEngine
from repro.store.records import LOG_MAGIC, OP_PUT, encode_header, encode_record
from repro.store.wal import LOG_NAME

KEY = bytes(range(32))
NAMESPACE = "items"
RECORD_KEY = b"guid-0001"
V1_PLAINTEXT = b"sealed at rest by the ChaCha20 box"
V1_SEALED = bytes.fromhex(
    "5610f5e269ed2955e4b747e4e70723a9568547444814c369d9529c6372c8073d"
    "227346872bf2e66f4749432fdcbce1909cb1346fc08800556bec29a4d85f209a"
    "8db431d19d58fa1e57f83c02bfa6"
)


def test_wal_engine_rejects_a_value_sealed_by_the_old_box(tmp_path):
    path = tmp_path / "store"
    path.mkdir()
    log = encode_header(LOG_MAGIC, sealed=True, base_lsn=0) + encode_record(
        1, OP_PUT, NAMESPACE, RECORD_KEY, V1_SEALED
    )
    (path / LOG_NAME).write_bytes(log)
    with pytest.raises(CorruptRecordError, match="wrong store key or damaged file"):
        WalEngine(str(path), key=KEY)
