"""LiveRpcEndpoint: request/response, one-way, push, reconnect, shutdown."""

from __future__ import annotations

import asyncio
import json
import struct
import time

import pytest

from repro.core.ara import RegistrationAuthority
from repro.core.messages import RPC_STORE
from repro.errors import TransportError
from repro.live import rpc
from repro.live.channel import ServerIdentity
from repro.live.deployment import LiveDeployment
from repro.live.rpc import AddressBook, LiveRpcEndpoint
from repro.mq import messages as frames
from repro.mq.messages import JmsFrame
from repro.obs import Observability, hooks
from repro.pbe.schema import AttributeSpec, Interest, MetadataSchema

from ..net.rpc_contract import RpcContract
from ..obs.test_context_wire import HOSTILE, frame_with_context
from .conftest import run_async, scrape, small_config

pytestmark = pytest.mark.live

SCHEMA = MetadataSchema([AttributeSpec("topic", ("a", "b"))])


@pytest.fixture(scope="module")
def ara(group):
    return RegistrationAuthority(group, SCHEMA)


async def server_endpoint(ara, group, name="svc", **kwargs) -> LiveRpcEndpoint:
    endpoint = LiveRpcEndpoint(
        name,
        AddressBook(),
        ara_verify_key=ara.directory.ara_verify_key,
        identity=ServerIdentity.issue(ara, group, name),
        **kwargs,
    )
    return endpoint


def client_endpoint(ara, server: LiveRpcEndpoint, bound, name="cli", **kwargs):
    book = AddressBook()
    book.register(server.name, bound[0], bound[1], server.identity.service_key)
    return LiveRpcEndpoint(
        name, book, ara_verify_key=ara.directory.ara_verify_key, **kwargs
    )


class TestRequestResponse:
    def test_call_returns_handler_payload(self, ara, group):
        async def scenario():
            server = await server_endpoint(ara, group)
            server.serve("echo", lambda src, msg: (b"echo:" + msg.payload, 1))
            bound = await server.start_server()
            client = client_endpoint(ara, server, bound)
            try:
                assert await client.call("svc", "echo", b"hi") == b"echo:hi"
            finally:
                await client.close()
                await server.close()

        run_async(scenario())

    def test_async_handler_and_concurrent_calls(self, ara, group):
        async def scenario():
            server = await server_endpoint(ara, group)

            async def slow_echo(src, msg):
                await asyncio.sleep(0.05)
                return (msg.payload * 2, 1)

            server.serve("echo", slow_echo)
            bound = await server.start_server()
            client = client_endpoint(ara, server, bound)
            try:
                results = await asyncio.gather(
                    *(client.call("svc", "echo", bytes([i])) for i in range(5))
                )
                assert results == [bytes([i]) * 2 for i in range(5)]
            finally:
                await client.close()
                await server.close()

        run_async(scenario())

    def test_call_timeout_raises_transport_error(self, ara, group):
        async def scenario():
            server = await server_endpoint(ara, group)

            async def never(src, msg):
                await asyncio.Event().wait()

            server.serve("stall", never)
            bound = await server.start_server()
            client = client_endpoint(ara, server, bound)
            try:
                with pytest.raises(TransportError, match="timed out"):
                    await client.call("svc", "stall", b"x", timeout_s=0.2)
            finally:
                await client.close()
                await server.close()

        run_async(scenario())


class TestOneWayAndPush:
    def test_cast_and_server_push_over_client_connection(self, ara, group):
        async def scenario():
            server = await server_endpoint(ara, group)
            received = asyncio.get_running_loop().create_future()

            async def on_note(src, msg):
                # push back over the connection the client opened
                await server.cast(src, "note.reply", b"pushed:" + msg.payload)

            server.serve("note", on_note)
            bound = await server.start_server()
            client = client_endpoint(ara, server, bound)
            client.serve("note.reply", lambda src, msg: received.set_result(
                (src, msg.payload)
            ))
            try:
                await client.cast("svc", "note", b"ping")
                src, payload = await asyncio.wait_for(received, 10.0)
                assert src == "svc"
                assert payload == b"pushed:ping"
            finally:
                await client.close()
                await server.close()

        run_async(scenario())

    def test_frame_src_is_the_authenticated_peer(self, ara, group):
        async def scenario():
            server = await server_endpoint(ara, group)
            seen = asyncio.get_running_loop().create_future()
            server.serve("who", lambda src, msg: seen.set_result((src, msg.src)))
            bound = await server.start_server()
            client = client_endpoint(ara, server, bound, name="mallory-claims-alice")
            try:
                await client.cast("svc", "who", b"")
                handler_src, frame_src = await asyncio.wait_for(seen, 10.0)
                # both reflect the handshake identity, not frame contents
                assert handler_src == "mallory-claims-alice"
                assert frame_src == "mallory-claims-alice"
            finally:
                await client.close()
                await server.close()

        run_async(scenario())


class TestReconnectAndShutdown:
    def test_unreachable_peer_backs_off_then_raises(self, ara, group, monkeypatch):
        monkeypatch.setattr(rpc, "RECONNECT_ATTEMPTS", 3)
        monkeypatch.setattr(rpc, "BACKOFF_CAP_S", 0.2)
        monkeypatch.setattr(rpc, "CONNECT_TIMEOUT_S", 1.0)

        async def scenario():
            server = await server_endpoint(ara, group)
            bound = await server.start_server()
            client = client_endpoint(ara, server, bound)
            await server.close()  # nothing listening any more
            started = time.monotonic()
            with pytest.raises(TransportError, match="could not reach"):
                await client.call("svc", "echo", b"x")
            elapsed = time.monotonic() - started
            # attempts 2 and 3 sleep 0.05 + 0.1 before giving up
            assert elapsed >= 0.15
            await client.close()

        run_async(scenario())

    def test_reconnects_after_connection_drop(self, ara, group, monkeypatch):
        monkeypatch.setattr(rpc, "BACKOFF_BASE_S", 0.01)

        async def scenario():
            server = await server_endpoint(ara, group)
            server.serve("echo", lambda src, msg: (msg.payload, 1))
            bound = await server.start_server()
            client = client_endpoint(ara, server, bound)
            try:
                assert await client.call("svc", "echo", b"one") == b"one"
                # sever the established channel from the server side
                for channel in list(server._channels.values()):
                    await channel.close()
                await asyncio.sleep(0.05)
                # next call dials a fresh connection transparently
                assert await client.call("svc", "echo", b"two") == b"two"
            finally:
                await client.close()
                await server.close()

        run_async(scenario())

    def test_close_fails_pending_calls(self, ara, group):
        async def scenario():
            server = await server_endpoint(ara, group)

            async def never(src, msg):
                await asyncio.Event().wait()

            server.serve("stall", never)
            bound = await server.start_server()
            client = client_endpoint(ara, server, bound)
            task = asyncio.ensure_future(client.call("svc", "stall", b"x"))
            await asyncio.sleep(0.2)  # let the request reach the server
            await client.close()
            with pytest.raises(TransportError):
                await task
            await server.close()

        run_async(scenario())

    def test_send_after_close_raises(self, ara, group):
        async def scenario():
            server = await server_endpoint(ara, group)
            bound = await server.start_server()
            client = client_endpoint(ara, server, bound)
            await client.close()
            with pytest.raises(TransportError, match="closed"):
                await client.cast("svc", "anything", b"")
            await server.close()

        run_async(scenario())


class TestHostileSpanContext:
    def test_endpoint_keeps_serving_and_the_spans_are_rootless(self, ara, group):
        def handle(src, message):
            # what every service handler does with an incoming frame
            span = hooks.start_span("probe", "svc", parent=hooks.extract(message.headers))
            hooks.end_span(span)

        async def scenario():
            server = await server_endpoint(ara, group)
            server.serve("probe", handle)
            server.serve("echo", lambda src, msg: (msg.payload, 1))
            bound = await server.start_server()
            client = client_endpoint(ara, server, bound)
            try:
                # below encode_frame, which refuses to write such a header
                channel = await client._ensure_channel("svc")
                for value in HOSTILE:
                    await channel.send_record(frame_with_context(value))
                await channel.send_record(frame_with_context([5, 6]))
                # same channel, same reader loop: it is still there to answer
                assert await client.call("svc", "echo", b"alive") == b"alive"
            finally:
                await client.close()
                await server.close()

        with Observability().installed() as obs:
            run_async(scenario())
            probes = obs.tracer.find("probe")
        assert len(probes) == len(HOSTILE) + 1
        *hostile, parented = probes
        assert all(span.parent_id is None for span in hostile)
        assert len({span.trace_id for span in hostile}) == len(HOSTILE)
        assert (parented.trace_id, parented.parent_id) == (5, 6)


class TestRpcContract(RpcContract):
    """The contract of ``tests/net/rpc_contract.py`` over loopback TCP."""

    timeout_s = 0.5
    slow_s = 0.1

    @pytest.fixture(autouse=True)
    def _trust_root(self, ara, group):
        self.ara, self.group = ara, group

    def _server(self, name):
        self.servers.append(
            LiveRpcEndpoint(
                name, AddressBook(), ara_verify_key=self.ara.directory.ara_verify_key,
                identity=ServerIdentity.issue(self.ara, self.group, name),
            )
        )  # fmt: skip
        return self.servers[-1]

    def pair(self):
        self.servers = []
        self.client = LiveRpcEndpoint(
            "cli", AddressBook(), ara_verify_key=self.ara.directory.ara_verify_key
        )
        return self._server("svc"), self.client

    def bystander(self):
        return self._server("other")

    def sleep(self, seconds):
        return asyncio.sleep(seconds)

    def run(self, *bodies):
        async def scenario():
            for server in self.servers:
                host, port = await server.start_server()
                self.client.addresses.register(server.name, host, port, server.identity.service_key)
            try:
                return list(await asyncio.gather(*map(self.client.drive, bodies)))
            finally:
                await self.client.close()
                for server in self.servers:
                    await server.close()

        return run_async(scenario())


class TestHostileHeaders:
    def test_a_response_naming_no_call_is_dropped(self, ara, group):
        """A response's ``corr`` is the peer's to choose, even an unhashable
        one, and it arrives while the caller has a call pending."""
        meta = json.dumps({"t": "echo:reply", "s": "svc"}).encode()
        headers = json.dumps({"rpc": "response", "corr": [1]}).encode()
        record = (
            struct.pack(">H", len(meta)) + meta
            + struct.pack(">I", len(headers)) + headers + b"\x00"
        )  # fmt: skip

        async def scenario():
            server = await server_endpoint(ara, group)

            async def echo(src, msg):
                # below encode_frame, which refuses to write such a header
                await server._channels[src].send_record(record)
                return (msg.payload, 1)

            server.serve("echo", echo)
            bound = await server.start_server()
            client = client_endpoint(ara, server, bound)
            try:
                assert await client.call("svc", "echo", b"alive", timeout_s=5.0) == b"alive"
            finally:
                await client.close()
                await server.close()

        run_async(scenario())


class TestClaimedNames:
    def test_a_client_claiming_a_service_name_does_not_displace_it(self):
        """Client names are claims: a client that connects to the DS as
        ``rs`` must not become the DS's way to the RS."""

        async def scenario():
            deployment = LiveDeployment(small_config())
            await deployment.start()
            rogue = deployment._client_endpoint(deployment.rs.name)
            stolen = []
            rogue.serve(RPC_STORE, lambda src, msg: stolen.append(msg.payload))
            try:
                alice = await deployment.add_subscriber("alice", {"org"})
                await alice.subscribe(Interest({"topic": "a"}))
                publisher = await deployment.add_publisher("pub")
                metadata = {"topic": "a", "prio": "lo"}
                await publisher.publish(metadata, b"first", policy="org")
                await alice.wait_for_deliveries(1)
                # squat: the DS reads this connection before the next publication
                await rogue.cast("ds", frames.CONNECT, JmsFrame())
                assert (await scrape(deployment)).health("ds")["ready"]
                await publisher.publish(metadata, b"second", policy="org")
                await alice.wait_for_deliveries(2, 10.0)
                assert [d.payload for d in alice.stats.deliveries] == [b"first", b"second"]
                assert stolen == []
            finally:
                await rogue.close()
                await deployment.close()

        run_async(scenario())
