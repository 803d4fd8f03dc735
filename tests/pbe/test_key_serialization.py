"""Compressed HVE ciphertexts and compressed points."""

import pytest

from repro.crypto.group import PairingGroup
from repro.errors import SerializationError
from repro.pbe import HVE
from repro.pbe.serialize import (
    deserialize_hve_ciphertext,
    hve_ciphertext_size,
    serialize_hve_ciphertext,
)

GROUP = PairingGroup("TOY")
SCHEME = HVE(GROUP)
N = 4
PUBLIC, MASTER = SCHEME.setup(N)
GUID = b"guid-abcdef12345"


class TestCompressedCiphertexts:
    def test_compressed_roundtrip_queries(self):
        ciphertext = SCHEME.encrypt(PUBLIC, [1, 1, 0, 0], GUID)
        blob = serialize_hve_ciphertext(GROUP, ciphertext, compressed=True)
        restored = deserialize_hve_ciphertext(GROUP, blob)
        token = SCHEME.gen_token(MASTER, [1, 1, None, None])
        assert SCHEME.query(token, restored) == GUID

    def test_compression_halves_point_footprint(self):
        ciphertext = SCHEME.encrypt(PUBLIC, [1, 1, 0, 0], GUID)
        plain = serialize_hve_ciphertext(GROUP, ciphertext)
        packed = serialize_hve_ciphertext(GROUP, ciphertext, compressed=True)
        assert len(plain) == hve_ciphertext_size(GROUP, N, len(GUID))
        point_savings = 2 * N * (GROUP.g1_bytes - GROUP.g1_bytes_compressed)
        assert len(plain) - len(packed) == point_savings

    def test_unknown_flags_rejected(self):
        ciphertext = SCHEME.encrypt(PUBLIC, [1, 1, 0, 0], GUID)
        blob = bytearray(serialize_hve_ciphertext(GROUP, ciphertext))
        blob[0] = 0x7F
        with pytest.raises(SerializationError):
            deserialize_hve_ciphertext(GROUP, bytes(blob))


class TestCompressedPoints:
    def test_roundtrip_both_parities(self):
        from repro.crypto.curve import Point

        params = GROUP.params
        for scalar in (3, 5, 7, 11, 13):
            point = GROUP.generator * scalar
            restored = Point.from_bytes_compressed(point.to_bytes_compressed(), params)
            assert restored == point

    def test_infinity_roundtrip(self):
        from repro.crypto.curve import Point

        inf = Point.infinity(GROUP.params)
        assert Point.from_bytes_compressed(inf.to_bytes_compressed(), GROUP.params).is_infinity

    def test_invalid_x_rejected(self):
        from repro.crypto.curve import Point
        from repro.errors import NotOnCurveError

        # find an x not on the curve
        q = GROUP.params.q
        width = GROUP.params.q_bytes
        from repro.crypto.field import fq_is_square

        x = 2
        while fq_is_square((x**3 + x) % q, q):
            x += 1
        data = b"\x02" + x.to_bytes(width, "big")
        with pytest.raises(NotOnCurveError):
            Point.from_bytes_compressed(data, GROUP.params)

    def test_windowed_mul_matches_plain_ladder(self):
        from repro.crypto.curve import Point

        def plain(point, k):
            result = Point.infinity(point.params)
            addend = point
            while k:
                if k & 1:
                    result = result + addend
                k >>= 1
                if k:
                    addend = addend + addend
            return result

        point = GROUP.generator
        for scalar in (1, 2, 255, (1 << 64) + 12345, GROUP.order - 1):
            assert point.scalar_mul_windowed(scalar) == plain(point, scalar)
