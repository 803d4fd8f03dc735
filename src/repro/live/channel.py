"""Authenticated-encryption channel over one TCP connection.

This is the live substrate's counterpart of the simulator's *modeled*
TLS layer (:mod:`repro.net.channel`): instead of accounting a constant
record overhead, every frame really is protected by the repo's own
SHAKE-256+HMAC AEAD (:class:`repro.crypto.symmetric.SecretBox`).

**Handshake** (one round trip, server authenticated by an ARA-signed key
binding — the "public key certificates" the ARA distributes in §4.3):

1. The client verifies the server's :class:`ServiceKey` — an ARA
   signature over ``name || PKE public key`` (see
   :meth:`repro.core.ara.RegistrationAuthority.sign_service_key`).
2. ``client → server`` (cleartext): ``MAGIC || client_name ||
   PKE_encrypt(server_pk, pre_master(32) || nonce(16))`` — a
   trace-Diffie-Hellman key transport in GT under the server's key
   (:mod:`repro.crypto.pke`).
3. Both sides derive directional record keys with the KDF:
   ``k_c2s = kdf(pre_master, "live-c2s")``, ``k_s2c = kdf(pre_master,
   "live-s2c")``.
4. ``server → client``: the first protected s2c record, whose plaintext
   must echo the client's nonce — decrypting it proves the server holds
   the private key; a wrong echo or MAC failure is a
   :class:`~repro.errors.HandshakeError`.

**Record protection**: each frame travels as ``u32 len || u64 seq ||
SecretBox.seal(frame, associated_data=seq)``.  The receiver enforces
exactly-once, in-order sequence numbers: a gap raises
:class:`~repro.errors.MessageLossError` (§6.1 loss detection, for real),
a MAC failure raises :class:`~repro.errors.TransportError`.

The client *name* sent in the hello identifies the connection (the DS
knows who is connected — §6.1 already grants it that); client
*authorization* stays where the paper puts it, in the application-layer
certificates inside token requests.
"""

from __future__ import annotations

import asyncio
import struct
from dataclasses import dataclass

from ..core.ara import SERVICE_KEY_CONTEXT
from ..crypto.hashing import kdf
from ..crypto.pke import PKEKeyPair, PKEPublicKey
from ..crypto.randomness import draw_bytes
from ..crypto.signing import Signature, VerifyKey
from ..errors import (
    DecryptionError,
    HandshakeError,
    MessageLossError,
    TransportError,
)
from ..crypto.symmetric import SecretBox
from ..reader import Reader, prefixed
from .wire import MAX_FRAME_BYTES

__all__ = ["ServiceKey", "ServerIdentity", "SecureChannel", "connect_channel", "accept_channel"]

MAGIC = b"P3SL1\n"
HANDSHAKE_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class ServiceKey:
    """A signed directory entry: ``name ↔ PKE public key``, ARA-vouched."""

    name: str
    public_key: PKEPublicKey
    signature: Signature

    def verify(self, ara_verify_key: VerifyKey) -> bool:
        message = SERVICE_KEY_CONTEXT + self.name.encode("utf-8") + self.public_key.to_bytes()
        return ara_verify_key.verify(message, self.signature)


class ServerIdentity:
    """A live service's channel identity: keypair + ARA signature."""

    def __init__(self, name: str, keypair: PKEKeyPair, signature: Signature):
        self.name = name
        self.keypair = keypair
        self.signature = signature

    @classmethod
    def issue(cls, ara, group, name: str) -> "ServerIdentity":
        """Mint a fresh channel keypair and have the ARA sign the binding."""
        keypair = PKEKeyPair(group)
        return cls(name, keypair, ara.sign_service_key(name, keypair.public.to_bytes()))

    @property
    def service_key(self) -> ServiceKey:
        """The public, distributable half (what goes in the directory)."""
        return ServiceKey(self.name, self.keypair.public, self.signature)


class SecureChannel:
    """Sequenced AEAD record stream over one established connection."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        send_box: SecretBox,
        recv_box: SecretBox,
        local_name: str,
        peer_name: str,
    ):
        self._reader = reader
        self._writer = writer
        self._send_box = send_box
        self._recv_box = recv_box
        self.local_name = local_name
        self.peer_name = peer_name
        self._send_seq = 0
        self._recv_seq = 0
        self._send_lock = asyncio.Lock()
        self._closed = False
        self.bytes_received = 0

    @property
    def closed(self) -> bool:
        return self._closed

    async def send_record(self, record: bytes) -> int:
        """Seal and transmit one record; sequence number rides in the AAD.

        Returns the wire length (length prefix + sequence + AEAD seal) so
        callers can account real transmitted bytes per peer.
        """
        if self._closed:
            raise TransportError(f"channel {self.local_name}→{self.peer_name} is closed")
        async with self._send_lock:
            seq = self._send_seq
            self._send_seq += 1
            sealed = self._send_box.seal(record, associated_data=_seq_bytes(seq))
            wire = struct.pack(">IQ", len(sealed) + 8, seq) + sealed
            try:
                self._writer.write(wire)
                await self._writer.drain()
            except (ConnectionError, OSError) as exc:
                self._closed = True
                raise TransportError(
                    f"send to {self.peer_name} failed: {exc}"
                ) from exc
            return len(wire)

    async def recv_record(self) -> bytes:
        """Receive, authenticate, and sequence-check one record."""
        if self._closed:
            raise TransportError(f"channel {self.local_name}←{self.peer_name} is closed")
        try:
            header = await self._reader.readexactly(4)
            (length,) = struct.unpack(">I", header)
            if length < 8 or length > MAX_FRAME_BYTES:
                raise TransportError(f"invalid record length {length}")
            body = await self._reader.readexactly(length)
            self.bytes_received += 4 + length
        except (asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
            self._closed = True
            raise TransportError(
                f"connection to {self.peer_name} lost: {exc}"
            ) from exc
        except TransportError:
            self._closed = True  # a bad length: the stream is out of step
            raise
        (seq,) = struct.unpack_from(">Q", body, 0)
        expected = self._recv_seq
        if seq != expected:
            self._closed = True
            raise MessageLossError(
                f"{self.local_name}: record gap from {self.peer_name}: "
                f"expected seq {expected}, got {seq}"
            )
        self._recv_seq += 1
        try:
            return self._recv_box.open(body[8:], associated_data=_seq_bytes(seq))
        except DecryptionError as exc:
            self._closed = True
            raise TransportError(
                f"{self.local_name}: record from {self.peer_name} failed "
                f"authentication: {exc}"
            ) from exc

    async def close(self) -> None:
        """Graceful half: flush, FIN, release."""
        self._closed = True
        if self._writer.is_closing():
            return  # a failed read or send marks the channel closed, not the socket
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # peer already gone


def _seq_bytes(seq: int) -> bytes:
    return struct.pack(">Q", seq)


def _derive_boxes(pre_master: bytes) -> tuple[SecretBox, SecretBox]:
    """(client→server box, server→client box) from the shared secret."""
    return SecretBox(kdf(pre_master, "live-c2s")), SecretBox(kdf(pre_master, "live-s2c"))


async def connect_channel(
    host: str,
    port: int,
    server_key: ServiceKey,
    ara_verify_key: VerifyKey | None,
    client_name: str,
    timeout: float = HANDSHAKE_TIMEOUT_S,
) -> SecureChannel:
    """Dial a live service and run the client side of the handshake."""
    if ara_verify_key is not None and not server_key.verify(ara_verify_key):
        raise HandshakeError(
            f"service key for {server_key.name!r} does not verify under the ARA key"
        )
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
    except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
        raise TransportError(f"connect to {server_key.name} at {host}:{port} failed: {exc}") from exc
    try:
        pre_master = draw_bytes("key", 32)
        nonce = draw_bytes("nonce", 16)
        sealed = server_key.public_key.encrypt(pre_master + nonce)
        name_bytes = client_name.encode("utf-8")
        writer.write(MAGIC + struct.pack(">H", len(name_bytes)) + name_bytes + prefixed(sealed))
        await writer.drain()
        c2s_box, s2c_box = _derive_boxes(pre_master)
        channel = SecureChannel(
            reader, writer, c2s_box, s2c_box, client_name, server_key.name
        )
        echo = await asyncio.wait_for(channel.recv_record(), timeout)
        if echo != nonce:
            raise HandshakeError(f"{server_key.name} returned a wrong handshake echo")
        return channel
    except (TransportError, asyncio.TimeoutError) as exc:
        writer.close()
        if isinstance(exc, HandshakeError):
            raise
        raise HandshakeError(f"handshake with {server_key.name} failed: {exc}") from exc


async def accept_channel(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    identity: ServerIdentity,
) -> SecureChannel:
    """Run the server side of the handshake on one accepted connection.

    The whole client hello is read under one :data:`HANDSHAKE_TIMEOUT_S`,
    and whatever is wrong with it is a :class:`HandshakeError` with the
    connection closed."""
    try:
        client_name, secret = await asyncio.wait_for(
            _read_hello(reader, identity), HANDSHAKE_TIMEOUT_S
        )
    except (HandshakeError, asyncio.IncompleteReadError, asyncio.TimeoutError, OSError) as exc:
        writer.close()
        if isinstance(exc, HandshakeError):
            raise
        raise HandshakeError(f"handshake read failed: {exc}") from exc
    pre_master, nonce = secret[:32], secret[32:]
    c2s_box, s2c_box = _derive_boxes(pre_master)
    channel = SecureChannel(reader, writer, s2c_box, c2s_box, identity.name, client_name)
    await channel.send_record(nonce)  # first s2c record: prove key possession
    return channel


async def _read_hello(reader: asyncio.StreamReader, identity: ServerIdentity) -> tuple[str, bytes]:
    """``(client name, pre_master || nonce)`` from one client hello."""
    magic = await reader.readexactly(len(MAGIC))
    if magic != MAGIC:
        raise HandshakeError(f"bad protocol magic {magic!r}")
    name_len = int.from_bytes(await reader.readexactly(2), "big")
    client_name = Reader(await reader.readexactly(name_len), HandshakeError).utf8(name_len)
    sealed_len = int.from_bytes(await reader.readexactly(4), "big")
    if sealed_len > MAX_FRAME_BYTES:
        raise HandshakeError(f"oversized handshake ciphertext ({sealed_len} bytes)")
    try:
        secret = identity.keypair.decrypt(await reader.readexactly(sealed_len))
    except DecryptionError as exc:
        raise HandshakeError(f"client hello not addressed to {identity.name}: {exc}") from exc
    if len(secret) != 48:
        raise HandshakeError("malformed client hello secret block")
    return client_name, secret
