"""Exception hierarchy for the P3S reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one base class at an API boundary.  Subsystems define
narrower classes here rather than in their own modules so that the
hierarchy is visible in one place.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


# --------------------------------------------------------------------------
# Cryptographic substrate
# --------------------------------------------------------------------------

class CryptoError(ReproError):
    """Base class for failures in the cryptographic substrate."""


class ParameterError(CryptoError):
    """Invalid or inconsistent cryptographic parameters."""


class NotOnCurveError(CryptoError):
    """A point failed curve-membership validation."""


class DecryptionError(CryptoError):
    """Decryption failed (wrong key, corrupted ciphertext, failed MAC)."""


class IntegrityError(DecryptionError):
    """Authenticated decryption failed its integrity check."""


class SerializationError(CryptoError):
    """Malformed serialized cryptographic object."""


# --------------------------------------------------------------------------
# ABE / PBE schemes
# --------------------------------------------------------------------------

class PolicyError(ReproError):
    """Malformed access-policy expression or policy tree."""


class PolicyNotSatisfiedError(DecryptionError):
    """The attribute set does not satisfy the ciphertext policy."""


class MalformedCiphertextError(DecryptionError):
    """A ciphertext's components disagree with the policy it carries (leaf
    labels that do not name the policy's leaves one for one)."""


class GuidMismatchError(DecryptionError):
    """A retrieved payload decrypted, but its embedded GUID does not match
    the requested one (§4.3: the recovered GUID correlates request and
    response; a mismatch is treated as undecodable)."""


class SchemaError(ReproError):
    """Metadata or predicate violates the registered metadata schema."""


# --------------------------------------------------------------------------
# Network / messaging substrate
# --------------------------------------------------------------------------

class NetworkError(ReproError):
    """Base class for network failures (simulated or live)."""


class TransportError(NetworkError):
    """A transport-level failure: connect/dial errors, timeouts, broken
    or half-closed connections, reconnect budgets exhausted."""


class HandshakeError(TransportError):
    """Secure-channel establishment failed (bad server key, tampered
    hello, certificate/signature rejection, protocol mismatch)."""


class MessageLossError(TransportError):
    """A sequence gap on a secure channel: one or more protected records
    were lost or reordered (§6.1: "participants can detect if network
    failures cause message loss")."""


class RoutingError(NetworkError):
    """No route / unknown host in the simulated network."""


class BrokerError(ReproError):
    """Mini-JMS broker protocol violation."""


# --------------------------------------------------------------------------
# P3S middleware
# --------------------------------------------------------------------------

class P3SError(ReproError):
    """Base class for P3S protocol failures."""


class RegistrationError(P3SError):
    """Participant registration with the ARA failed."""


class CertificateError(P3SError):
    """Invalid, expired, or wrong-role participant certificate."""


class TokenRequestError(P3SError):
    """PBE-TS rejected a token request."""


# --------------------------------------------------------------------------
# Durable storage (repro.store)
# --------------------------------------------------------------------------

class StorageError(ReproError):
    """Base class for storage-engine failures."""


class CorruptRecordError(StorageError):
    """A log/snapshot record failed its CRC or framing checks somewhere
    other than the torn tail — the file is damaged, not merely truncated
    by a crash, and recovery refuses to guess past it."""


class RecoveryError(StorageError):
    """Replaying snapshot + log could not reconstruct a consistent state
    (missing snapshot referenced by the manifest, unreadable directory,
    wrong store key)."""


class RetrievalError(P3SError):
    """Repository Server could not satisfy a payload retrieval."""


# --------------------------------------------------------------------------
# Observability (repro.obs)
# --------------------------------------------------------------------------

class ProfileError(ReproError):
    """A profile document that is not the one ``Profile.to_dict`` writes
    (a recording on disk, or a service's telemetry snapshot)."""


class BenchFileError(ReproError, ValueError):
    """A ``BENCH_*.json`` document that is not a v1 record file (or two
    files recording one name)."""
