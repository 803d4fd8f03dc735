"""Schnorr signatures over G1, plus the participant certificates the ARA issues.

The paper's ARA acts as a certification authority: it hands each
subscriber "a certificate that indicates the participant is a subscriber"
(§4.3), which the PBE-TS later validates before minting tokens.  This
module provides the signature scheme and a small certificate structure
(subject, role, validity window) signed by the ARA.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from ..errors import CertificateError, SerializationError
from ..reader import Reader, expect_object, parse_json, prefixed
from .curve import Point
from .group import PairingGroup

__all__ = ["SigningKeyPair", "VerifyKey", "Signature", "Certificate"]


@dataclass(frozen=True)
class Signature:
    """A Schnorr signature ``(c, s)``."""

    challenge: int
    response: int

    def to_bytes(self, zr_bytes: int) -> bytes:
        return self.challenge.to_bytes(zr_bytes, "big") + self.response.to_bytes(zr_bytes, "big")

    @classmethod
    def from_bytes(cls, data: bytes, group: PairingGroup) -> "Signature":
        reader, width = Reader(data, SerializationError), group.zr_bytes
        challenge, response = reader.uint(width), reader.uint(width)
        reader.end()
        if challenge >= group.order or response >= group.order:  # one encoding a signature
            raise SerializationError("signature scalar not below the group order")
        return cls(challenge, response)


@dataclass(frozen=True)
class VerifyKey:
    """Schnorr verification key ``vk = sk·g``."""

    group: PairingGroup
    point: Point

    def verify(self, message: bytes, signature: Signature) -> bool:
        group = self.group
        # R' = s·g + c·vk ;  valid iff H(R' || vk || m) == c
        commitment = group.generator * signature.response + self.point * signature.challenge
        expected = group.hash_to_zr(
            "schnorr",
            group.serialize_g1(commitment),
            group.serialize_g1(self.point),
            message,
        )
        return expected == signature.challenge

    def to_bytes(self) -> bytes:
        return self.group.serialize_g1(self.point)


class SigningKeyPair:
    """Schnorr signing key; ``sign`` produces ``(c, s)`` with ``s = k − c·sk``."""

    def __init__(self, group: PairingGroup):
        self.group = group
        self._secret = group.random_zr()
        self.verify_key = VerifyKey(group, group.generator * self._secret)

    def sign(self, message: bytes) -> Signature:
        group = self.group
        nonce = group.random_zr()
        commitment = group.generator * nonce
        challenge = group.hash_to_zr(
            "schnorr",
            group.serialize_g1(commitment),
            group.serialize_g1(self.verify_key.point),
            message,
        )
        response = (nonce - challenge * self._secret) % group.order
        return Signature(challenge, response)


@dataclass(frozen=True)
class Certificate:
    """An ARA-issued participant certificate.

    ``role`` is ``"subscriber"`` or ``"publisher"`` (paper §4.3: the
    PBE-TS checks the subscriber certificate before returning a token).
    ``not_after`` is simulation time; ``None`` disables expiry.
    """

    subject: str
    role: str
    not_after: float | None
    signature: Signature

    @staticmethod
    def _payload(subject: str, role: str, not_after: float | None) -> bytes:
        return json.dumps(
            {"subject": subject, "role": role, "not_after": not_after},
            sort_keys=True,
        ).encode("utf-8")

    @classmethod
    def issue(
        cls,
        signer: SigningKeyPair,
        subject: str,
        role: str,
        not_after: float | None = None,
    ) -> "Certificate":
        payload = cls._payload(subject, role, not_after)
        return cls(subject, role, not_after, signer.sign(payload))

    def validate(self, verify_key: VerifyKey, expected_role: str, now: float = 0.0) -> None:
        """Raise :class:`CertificateError` unless the certificate is valid."""
        self.check_claims(expected_role, now)
        payload = self._payload(self.subject, self.role, self.not_after)
        if not verify_key.verify(payload, self.signature):
            raise CertificateError("certificate signature invalid")

    def check_claims(self, expected_role: str, now: float) -> None:
        """Raise :class:`CertificateError` unless the role is ``expected_role``
        and ``now`` is within the validity window; the signature is not checked."""
        if self.role != expected_role:
            raise CertificateError(f"certificate role {self.role!r} != {expected_role!r}")
        if self.not_after is not None and now > self.not_after:
            raise CertificateError(f"certificate for {self.subject!r} expired")

    def to_bytes(self, zr_bytes: int) -> bytes:
        body = self._payload(self.subject, self.role, self.not_after)
        return prefixed(body) + self.signature.to_bytes(zr_bytes)

    @classmethod
    def from_bytes(cls, data: bytes, group: PairingGroup) -> "Certificate":
        """The certificate ``data`` encodes; anything but the one canonical
        encoding of string ``subject``/``role`` and a ``not_after`` that is
        ``None`` or a finite number is a :class:`SerializationError`."""
        reader = Reader(data, SerializationError)
        body = reader.prefixed()
        signature = Signature.from_bytes(reader.rest(), group)
        fields = expect_object(
            parse_json(body, SerializationError),
            {"not_after": (int, float, type(None)), "role": str, "subject": str},
            "certificate body",
            SerializationError,
        )
        subject, role, not_after = fields["subject"], fields["role"], fields["not_after"]
        if isinstance(not_after, float) and not math.isfinite(not_after):
            raise SerializationError("certificate not_after is not finite")
        if cls._payload(subject, role, not_after) != body:  # one encoding a certificate
            raise SerializationError("non-canonical certificate body")
        return cls(subject, role, not_after, signature)
