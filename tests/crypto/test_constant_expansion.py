"""Every ciphertext, record and frame length is what it was under the ChaCha20 box.

The simulator's byte-accurate sizes and the §7 models depend only on
SecretBox's constant ``nonce + tag`` expansion (DESIGN.md §1), so a change
of keystream must not move a single length.  The literals below were
measured on the parent commit (eb55352) at TOY with the same inputs.
"""

import asyncio

from repro.abe.hybrid import HybridCPABE
from repro.abe.serialize import serialize_hybrid
from repro.crypto.group import PairingGroup
from repro.crypto.pke import PKEKeyPair, pke_overhead
from repro.crypto.symmetric import NONCE_LEN, OVERHEAD, TAG_LEN, SecretBox
from repro.live.channel import SecureChannel
from repro.pbe.hve import HVE
from repro.pbe.serialize import serialize_hve_ciphertext


class _Sink:
    """The two StreamWriter calls send_record makes."""

    def __init__(self):
        self.sent = b""

    def write(self, data: bytes) -> None:
        self.sent += data

    async def drain(self) -> None:
        pass


def test_lengths_equal_the_parent_commit():
    group = PairingGroup("TOY")
    assert (NONCE_LEN, TAG_LEN, OVERHEAD) == (12, 32, 44)

    assert pke_overhead(group) == 64
    assert len(PKEKeyPair(group).public.encrypt(b"x" * 100)) == 164

    hve = HVE(group)
    public, _master = hve.setup(8)
    hve_ciphertext = hve.encrypt(public, [1, 0, 1, 1, 0, 0, 1, 0], b"p3s-golden-guid!")
    assert len(serialize_hve_ciphertext(group, hve_ciphertext)) == 725

    hybrid = HybridCPABE(group)
    abe_public, _abe_master = hybrid.setup()
    sealed = hybrid.encrypt(abe_public, b"x" * 1024, "org:acme and role:analyst")
    assert len(serialize_hybrid(group, sealed)) == 1406

    sink = _Sink()
    box = SecretBox(bytes(32))
    channel = SecureChannel(None, sink, box, box, "client", "server")
    assert asyncio.run(channel.send_record(b"x" * 1000)) == 1056
    assert len(sink.sent) == 1056  # u32 length + u64 seq + 1000 + OVERHEAD
