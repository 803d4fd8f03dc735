"""Secure channel: handshake, AEAD records, loss and tamper detection."""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.core.ara import RegistrationAuthority
from repro.crypto.symmetric import SecretBox
from repro.errors import HandshakeError, MessageLossError, ReproError, TransportError
from repro.live import channel as channel_module
from repro.live.channel import (
    MAGIC,
    SecureChannel,
    ServerIdentity,
    ServiceKey,
    accept_channel,
    connect_channel,
)
from repro.pbe.schema import AttributeSpec, MetadataSchema

from .conftest import run_async

pytestmark = pytest.mark.live

SCHEMA = MetadataSchema([AttributeSpec("topic", ("a", "b"))])


@pytest.fixture(scope="module")
def ara(group):
    return RegistrationAuthority(group, SCHEMA)


@pytest.fixture()
def identity(ara, group):
    return ServerIdentity.issue(ara, group, "svc")


async def accept_one(identity):
    """Listen on an ephemeral port, accept + handshake one connection."""
    loop = asyncio.get_running_loop()
    accepted: asyncio.Future = loop.create_future()

    async def on_connection(reader, writer):
        try:
            channel = await accept_channel(reader, writer, identity)
            if not accepted.done():
                accepted.set_result(channel)
        except Exception as exc:  # surfaced to the test, not swallowed
            if not accepted.done():
                accepted.set_exception(exc)

    server = await asyncio.start_server(on_connection, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    return server, port, accepted


class TestHandshake:
    def test_echo_and_bidirectional_records(self, ara, identity):
        async def scenario():
            server, port, accepted = await accept_one(identity)
            client = await connect_channel(
                "127.0.0.1", port, identity.service_key,
                ara.directory.ara_verify_key, "alice",
            )
            peer = await accepted
            assert client.peer_name == "svc"
            assert peer.peer_name == "alice"
            await client.send_record(b"ping")
            assert await peer.recv_record() == b"ping"
            await peer.send_record(b"pong")
            assert await client.recv_record() == b"pong"
            await client.close()
            await peer.close()
            server.close()
            await server.wait_closed()

        run_async(scenario())

    def test_forged_service_key_rejected(self, group, ara, identity):
        # a key binding signed by a DIFFERENT trust root must not verify
        other_ara = RegistrationAuthority(group, SCHEMA)
        forged = ServiceKey(
            identity.name,
            identity.keypair.public,
            other_ara.sign_service_key(identity.name, identity.keypair.public.to_bytes()),
        )

        async def scenario():
            with pytest.raises(HandshakeError):
                await connect_channel(
                    "127.0.0.1", 1, forged, ara.directory.ara_verify_key, "alice"
                )

        run_async(scenario())

    def test_server_without_matching_key_fails_echo(self, group, ara, identity):
        # directory lies about the server's key: the pre-master is sealed to
        # a key the server does not hold, so it can never produce the echo
        imposter_key = ServiceKey(
            "svc", ServerIdentity.issue(ara, group, "svc2").keypair.public,
            identity.signature,
        )

        async def scenario():
            server, port, accepted = await accept_one(identity)
            with pytest.raises(HandshakeError):
                await connect_channel(
                    "127.0.0.1", port, imposter_key, None, "alice", timeout=5.0
                )
            with pytest.raises(HandshakeError):
                await accepted
            server.close()
            await server.wait_closed()

        run_async(scenario())

    def test_connect_to_dead_port_raises_transport_error(self, ara, identity):
        async def scenario():
            # bind-then-close guarantees a port with no listener
            server = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            server.close()
            await server.wait_closed()
            with pytest.raises(TransportError):
                await connect_channel(
                    "127.0.0.1", port, identity.service_key,
                    ara.directory.ara_verify_key, "alice", timeout=2.0,
                )

        run_async(scenario())


# every one of these escaped accept_channel or held it past its timeout
HOSTILE_HELLOS = {
    # escaped as UnicodeDecodeError, and the writer was never closed
    "name not UTF-8": MAGIC + struct.pack(">H", 2) + b"\xff\xfe" + struct.pack(">I", 0),
    "stalls after the magic": MAGIC,  # still pending 3 s into a 0.5 s timeout
}


class TestHostileHello:
    """A client hello is bytes nobody vouches for: each bad one is a
    :class:`HandshakeError` out of ``accept_channel`` within its timeout,
    with the connection closed."""

    @pytest.mark.parametrize("case", sorted(HOSTILE_HELLOS))
    def test_hostile_hello_is_a_handshake_error_and_closes(self, identity, case, monkeypatch):
        monkeypatch.setattr(channel_module, "HANDSHAKE_TIMEOUT_S", 0.5)

        async def scenario():
            outcome = asyncio.get_running_loop().create_future()

            async def on_connection(reader, writer):
                try:
                    await accept_channel(reader, writer, identity)
                    error = None
                except Exception as exc:  # whatever escaped, for the assertion
                    error = exc
                if not outcome.done():
                    outcome.set_result(error)

            server = await asyncio.start_server(on_connection, "127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.sockets[0].getsockname()[1]
            )
            writer.write(HOSTILE_HELLOS[case])
            await writer.drain()
            error = await asyncio.wait_for(outcome, 3.0)
            leftover = await asyncio.wait_for(reader.read(), 3.0)  # EOF once the server closed
            writer.close()
            server.close()
            await server.wait_closed()
            return error, leftover

        error, leftover = run_async(scenario())
        assert isinstance(error, HandshakeError), repr(error)
        assert leftover == b""


async def connected_pair(ara, identity) -> tuple[SecureChannel, SecureChannel]:
    server, port, accepted = await accept_one(identity)
    client = await connect_channel(
        "127.0.0.1", port, identity.service_key,
        ara.directory.ara_verify_key, "alice",
    )
    peer = await accepted
    server.close()
    await server.wait_closed()
    return client, peer


def _raw_record(channel: SecureChannel, seq: int, plaintext: bytes) -> bytes:
    """Frame one record exactly as send_record would, for a chosen seq."""
    sealed = channel._send_box.seal(plaintext, associated_data=struct.pack(">Q", seq))
    return struct.pack(">IQ", len(sealed) + 8, seq) + sealed


class TestRecordProtection:
    def test_tampered_record_fails_authentication(self, ara, identity):
        async def scenario():
            client, peer = await connected_pair(ara, identity)
            wire = bytearray(_raw_record(client, seq=0, plaintext=b"secret"))
            wire[-1] ^= 0x01  # flip one ciphertext bit
            client._writer.write(bytes(wire))
            await client._writer.drain()
            with pytest.raises(TransportError) as excinfo:
                await peer.recv_record()
            assert not isinstance(excinfo.value, MessageLossError)
            await client.close()

        run_async(scenario())

    def test_sequence_gap_raises_message_loss(self, ara, identity):
        async def scenario():
            client, peer = await connected_pair(ara, identity)
            # skip seq 0: a dropped record, not a forged one
            client._writer.write(_raw_record(client, seq=1, plaintext=b"late"))
            await client._writer.drain()
            with pytest.raises(MessageLossError):
                await peer.recv_record()
            await client.close()

        run_async(scenario())

    def test_replayed_record_rejected(self, ara, identity):
        async def scenario():
            client, peer = await connected_pair(ara, identity)
            replay = _raw_record(client, seq=0, plaintext=b"once")
            client._writer.write(replay + replay)
            await client._writer.drain()
            assert await peer.recv_record() == b"once"
            with pytest.raises(MessageLossError):  # same seq again = gap rule
                await peer.recv_record()
            await client.close()

        run_async(scenario())

    def test_peer_disconnect_raises_transport_error(self, ara, identity):
        async def scenario():
            client, peer = await connected_pair(ara, identity)
            await client.close()
            with pytest.raises(TransportError):
                await peer.recv_record()
            with pytest.raises(TransportError):
                await peer.recv_record()  # closed channels stay closed

        run_async(scenario())

    def test_send_after_close_raises(self, ara, identity):
        async def scenario():
            client, peer = await connected_pair(ara, identity)
            await client.close()
            with pytest.raises(TransportError):
                await client.send_record(b"too late")
            await peer.close()

        run_async(scenario())


class _FedReader(asyncio.StreamReader):
    """A stream reader over fixed bytes that records each read's size."""

    def __init__(self, data: bytes):
        super().__init__()
        self.asked: list[int] = []
        self.feed_data(data)
        self.feed_eof()

    async def readexactly(self, n: int) -> bytes:
        self.asked.append(n)
        return await super().readexactly(n)


def _sealed_record(box: SecretBox, seq: int, plaintext: bytes) -> bytes:
    sealed = box.seal(plaintext, associated_data=struct.pack(">Q", seq))
    return struct.pack(">IQ", len(sealed) + 8, seq) + sealed


_KEY = bytes(range(32))
_GOOD = _sealed_record(SecretBox(_KEY), 0, b"frame")
# each a record stream a peer could send; none of them is one good record
HOSTILE_RECORDS = {
    "truncated header": _GOOD[:3],
    "length below 8": struct.pack(">I", 3) + _GOOD[4:],
    "length above MAX_FRAME_BYTES": struct.pack(">I", 0xFFFFFFFF) + _GOOD[4:],
    "EOF mid-body": _GOOD[:-1],
    "wrong sequence number": _sealed_record(SecretBox(_KEY), 1, b"frame"),
    "garbled AEAD body": _GOOD[:-1] + bytes([_GOOD[-1] ^ 0x01]),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_RECORDS))
def test_hostile_record_is_rejected_and_closes_the_channel(case):
    """A record stream is bytes nobody vouches for: each bad one is a
    :class:`ReproError` out of ``recv_record``, the channel is closed
    after it (the stream is out of step), and no read asked for more than
    one record may hold."""

    async def scenario():
        reader = _FedReader(HOSTILE_RECORDS[case])
        channel = SecureChannel(reader, None, SecretBox(_KEY), SecretBox(_KEY), "svc", "peer")
        with pytest.raises(ReproError):
            await SecureChannel.recv_record(channel)
        return channel, reader.asked

    channel, asked = run_async(scenario())
    assert channel.closed
    assert max(asked) <= channel_module.MAX_FRAME_BYTES
    with pytest.raises(TransportError):  # closed channels stay closed
        run_async(channel.recv_record())


def test_a_good_fed_record_opens():
    async def scenario():
        channel = SecureChannel(_FedReader(_GOOD), None, SecretBox(_KEY), SecretBox(_KEY), "svc", "peer")
        return await channel.recv_record(), channel

    record, channel = run_async(scenario())
    assert record == b"frame" and not channel.closed
