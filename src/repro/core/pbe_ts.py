"""Predicate-Based Encryption Token Server (PBE-TS).

Paper §4.1/§4.3 (Fig. 3): the PBE-TS "receives cleartext subscription
interest (predicate) from the subscriber, and returns the corresponding
PBE token".  The request arrives PKE-encrypted under the PBE-TS public
key as the 3-tuple ``(K_s, subscriber certificate, plaintext predicate)``
— normally via the anonymization service, so the PBE-TS sees predicates
but cannot bind them to subscriber identities.  The token is returned
super-encrypted under ``K_s``.

The paper calls out "the PBE-TS sees the plaintext predicate" as a
known exposure.  The server sees it and keeps nothing of it: the issuer
reports each (subject, time, predicate) it opens as a sighting
(:mod:`repro.core.sightings`), which only a harness records.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass

from ..crypto import precompute
from ..crypto.pke import PKEKeyPair
from ..crypto.signing import Certificate, VerifyKey
from ..crypto.symmetric import KEY_LEN, SecretBox
from ..errors import CertificateError, ReproError, SchemaError, TokenRequestError
from ..net.ports import ports_on
from ..obs import hooks as obs
from ..pbe.hve import HVE, HVEMasterKey
from ..pbe.schema import ANY, Interest, MetadataSchema
from ..pbe.serialize import serialize_hve_token
from ..reader import expect_object, parse_json
from .config import ComputeTimings
from .messages import BARE_ERROR, RPC_TOKEN_REQUEST, error_reply, ok_reply, split_reply, unhex
from .sightings import opened

__all__ = [
    "PBETokenServer",
    "SubscriptionPolicy",
    "TokenIssuer",
    "encode_token_request",
    "decode_token_response",
]


@dataclass(frozen=True)
class SubscriptionPolicy:
    """Subscription control (paper §8: "there is no subscription control
    policy enforced on the subscribers" — listed as a shortcoming; this is
    the natural enforcement point).

    * ``min_constrained_attributes`` rejects overly broad predicates (the
      paper already assumes honest clients never subscribe all-wildcard;
      this makes it policy).
    * ``allowed_attributes`` restricts which attributes a predicate may
      constrain.
    * ``max_tokens_per_subject`` throttles token accumulation per
      certificate pseudonym — a rate-limit counterpart to the
      time-stamped-token mitigation against the §6.1 accumulation attack.
    """

    min_constrained_attributes: int = 1
    allowed_attributes: frozenset[str] | None = None
    max_tokens_per_subject: int | None = None

    def check(self, subject: str, interest: Interest, issued_so_far: int) -> None:
        """Raise :class:`TokenRequestError` when the request violates policy."""
        constrained = [
            name for name, value in interest.constraints.items() if value is not ANY
        ]
        if len(constrained) < self.min_constrained_attributes:
            raise TokenRequestError(
                f"predicate constrains {len(constrained)} attribute(s); "
                f"policy requires at least {self.min_constrained_attributes}"
            )
        if self.allowed_attributes is not None:
            forbidden = set(constrained) - self.allowed_attributes
            if forbidden:
                raise TokenRequestError(
                    f"predicate constrains disallowed attributes: {sorted(forbidden)}"
                )
        if self.max_tokens_per_subject is not None and issued_so_far >= self.max_tokens_per_subject:
            raise TokenRequestError(
                f"subject {subject!r} exhausted its token quota "
                f"({self.max_tokens_per_subject})"
            )


def encode_token_request(
    session_key: bytes, certificate: Certificate, interest: Interest, zr_bytes: int
) -> bytes:
    """Plaintext body of the 3-tuple (K_s, certificate, predicate)."""
    cert_bytes = certificate.to_bytes(zr_bytes)
    body = {
        "ks": session_key.hex(),
        "cert": cert_bytes.hex(),
        "interest": interest.to_json(),
    }
    return json.dumps(body, sort_keys=True).encode("utf-8")


def decode_token_response(session_key: bytes, sealed: bytes) -> bytes:
    """Unseal the PBE-TS reply; returns serialized token bytes.

    Raises :class:`TokenRequestError` if the server reported a failure.
    """
    ok, body = split_reply(SecretBox(session_key).open(sealed))
    if not ok:
        raise TokenRequestError(
            f"PBE-TS refused token: {body.decode('utf-8', 'replace') or 'unknown error'}"
        )
    return body


class TokenIssuer:
    """The PBE-TS's substrate-free token-minting engine.

    Holds the HVE master material, the certificate trust root, the
    subscription policy, and per subject its quota and verified certificate.
    :class:`PBETokenServer` puts the modelled compute time between
    these calls (no time at all on the live substrate) — both substrates
    mint identical tokens for identical requests because this is the
    only implementation.
    """

    def __init__(
        self,
        hve: HVE,
        master_key: HVEMasterKey,
        schema: MetadataSchema,
        ara_verify_key: VerifyKey,
        subscription_policy: SubscriptionPolicy | None = None,
    ):
        self.hve = hve
        self.schema = schema
        self.subscription_policy = subscription_policy
        self._master = master_key
        self._ara_verify_key = ara_verify_key
        # Token generation is nothing but fixed-base scalar multiplications
        # of g; warm its comb table so even the first request is fast.
        precompute.warm_generator(hve.group)
        self.tokens_issued = 0
        self._issued_by_subject: dict[str, int] = defaultdict(int)
        # per subject, the certificate bytes whose signature checked out
        self._verified_by_subject: dict[str, bytes] = {}

    @classmethod
    def provisioned_by(cls, ara, config) -> "TokenIssuer":
        """The issuer the ARA provisions for one deployment config."""
        master_key, verify_key = ara.provision_pbe_ts()
        return cls(
            HVE(ara.group), master_key, config.schema, verify_key, config.subscription_policy
        )

    def open_request(
        self, pke: PKEKeyPair, payload: bytes
    ) -> tuple[bytes, Certificate, bytes, Interest]:
        """Decrypt and parse one token request under the server's PKE key
        into ``(K_s, certificate, its bytes as carried, interest)``; a body
        of any other shape is a :class:`TokenRequestError`."""
        try:
            body = expect_object(
                parse_json(pke.decrypt(payload), TokenRequestError),
                {"cert": str, "interest": str, "ks": str},
                "token request",
                TokenRequestError,
            )
            session_key = unhex(body["ks"], TokenRequestError, KEY_LEN)
            cert_bytes = unhex(body["cert"], TokenRequestError)
            certificate = Certificate.from_bytes(cert_bytes, self.hve.group)
            interest = Interest.from_json(body["interest"])
        except ReproError as exc:  # undecryptable, bad JSON/hex, bad fields
            raise TokenRequestError(f"malformed token request: {exc}") from exc
        return session_key, certificate, cert_bytes, interest

    def authorize(
        self, certificate: Certificate, cert_bytes: bytes, interest: Interest, now: float
    ) -> None:
        """Validate the certificate, report the sighting, enforce policy.

        Role and expiry are checked on every request; the signature once
        per subject and exact ``cert_bytes``, never per equal ``Certificate``
        (``5`` and ``5.0`` are equal fields but differently signed bodies).
        Raises :class:`CertificateError` / :class:`TokenRequestError` on
        refusal; the predicate is seen as soon as the certificate checks
        out (the paper's exposure: the PBE-TS *sees* it either way).
        """
        if self._verified_by_subject.get(certificate.subject) == cert_bytes:
            certificate.check_claims("subscriber", now)
        else:
            certificate.validate(self._ara_verify_key, "subscriber", now=now)
            self._verified_by_subject[certificate.subject] = cert_bytes
        opened("issuer", "request", (certificate.subject, now, interest))
        if self.subscription_policy is not None:
            self.subscription_policy.check(
                certificate.subject,
                interest,
                self._issued_by_subject[certificate.subject],
            )

    def mint(self, subject: str, interest: Interest) -> bytes:
        """Generate and serialize the PBE token; counts against quota."""
        token = self.hve.gen_token(self._master, self.schema.encode_interest(interest))
        token_bytes = serialize_hve_token(self.hve.group, token)
        self.tokens_issued += 1
        self._issued_by_subject[subject] += 1
        return token_bytes


class PBETokenServer:
    """The PBE-TS: the Fig. 3 token-request exchange, served on ``ports``
    (a simulator :class:`~repro.net.network.Host` stands for simulator
    ports on it)."""

    def __init__(self, ports, issuer: TokenIssuer, pke: PKEKeyPair, timings: ComputeTimings):
        self.ports = ports_on(ports)
        self.issuer = issuer
        self.pke = pke
        self.timings = timings
        self.token_requests = 0
        self.ports.serve(RPC_TOKEN_REQUEST, self._handle_token_request)

    @property
    def name(self) -> str:
        return self.ports.name

    def start(self) -> None:
        self.ports.start()

    def _handle_token_request(self, src: str, message):
        self.token_requests += 1
        opened(self.name, "source", src)  # with the anonymizer never a subscriber
        span = obs.start_span(
            "pbe_ts.token_request",
            component=self.name,
            parent=obs.extract(message.headers),
        )
        yield self.ports.compute(self.timings.pke_op)
        try:
            with obs.attach(span):
                session_key, certificate, cert_bytes, interest = self.issuer.open_request(
                    self.pke, message.payload
                )
        except TokenRequestError:
            obs.end_span(span, status="malformed")
            return (BARE_ERROR, 1)  # cannot even recover K_s; reply with a bare error
        status = "ok"
        try:
            self.issuer.authorize(certificate, cert_bytes, interest, now=self.ports.now())
            yield self.ports.compute(self.timings.pbe_token_gen)
            with obs.attach(span):
                token_bytes = self.issuer.mint(certificate.subject, interest)
            reply = ok_reply(token_bytes)
        except (CertificateError, SchemaError, TokenRequestError) as exc:
            reply = error_reply(str(exc))
            status = "refused"
        yield self.ports.compute(self.timings.symmetric(len(reply)))
        with obs.attach(span):
            sealed = SecretBox(session_key).seal(reply)
        obs.end_span(span, status=status)
        return (sealed, len(sealed))
