"""Ablation: point compression on HVE ciphertexts (size vs CPU).

Compression halves the dominant P3S wire cost (P_E, broadcast to every
subscriber) at the price of one modular square root per point on
deserialization.  The paper's 2Vk size estimate assumes compressed
elements; this bench measures both sides of the trade on the Table 1
metadata shape.

The size side is a v1 record in ``BENCH_pr41.json``, under ``repro perf
gate --smoke``:

* ``hve_compression.TOY.compressed_over_plain_bytes`` — the compressed
  ciphertext's bytes over the uncompressed one's: an exact byte count,
  so the same on every machine (ceiling 0.6 — an encoding that stopped
  compressing its points reads 1).

``P3S_WRITE_BENCH=1`` writes the file.
"""

import pytest
from conftest import BenchRecord

from repro.crypto.group import PairingGroup
from repro.pbe.hve import HVE
from repro.pbe.serialize import deserialize_hve_ciphertext, serialize_hve_ciphertext

GROUP = PairingGroup("TOY")
N = 40  # Table 1 metadata vector
GUID = b"guid-0123456789ab"
RATIO = "hve_compression.TOY.compressed_over_plain_bytes"
CEILING = 0.6


@pytest.fixture(scope="module")
def setting():
    hve = HVE(GROUP)
    public, master = hve.setup(N)
    ciphertext = hve.encrypt(public, [i % 2 for i in range(N)], GUID)
    return hve, ciphertext


def test_serialize_uncompressed(setting, benchmark):
    _, ciphertext = setting
    benchmark(lambda: serialize_hve_ciphertext(GROUP, ciphertext))


def test_serialize_compressed(setting, benchmark):
    _, ciphertext = setting
    benchmark(lambda: serialize_hve_ciphertext(GROUP, ciphertext, compressed=True))


def test_deserialize_uncompressed(setting, benchmark):
    _, ciphertext = setting
    blob = serialize_hve_ciphertext(GROUP, ciphertext)
    benchmark(lambda: deserialize_hve_ciphertext(GROUP, blob))


def test_deserialize_compressed(setting, benchmark):
    """Pays one square root per point — the CPU side of the trade."""
    _, ciphertext = setting
    blob = serialize_hve_ciphertext(GROUP, ciphertext, compressed=True)
    benchmark(lambda: deserialize_hve_ciphertext(GROUP, blob))


def test_size_report(setting, capsys, bench_writer):
    _, ciphertext = setting
    plain = len(serialize_hve_ciphertext(GROUP, ciphertext))
    packed = len(serialize_hve_ciphertext(GROUP, ciphertext, compressed=True))
    with capsys.disabled():
        print(
            f"\ncompression ablation (n={N}): P_E uncompressed={plain} B, "
            f"compressed={packed} B ({plain / packed:.2f}× smaller)"
        )
    assert packed < plain * CEILING
    bench_writer(
        "BENCH_pr41.json",
        suite="hve_compression",
        workload={
            "harness": "bench_ablation_compression.test_size_report: TOY, one HVE "
            f"ciphertext of an n = {N} binary key, serialized both ways",
            "plain_bytes": plain,
            "compressed_bytes": packed,
        },
        records=[
            BenchRecord(RATIO, packed / plain, "ratio", direction="lower", ceiling=CEILING)
        ],
    )
