"""The RPC contract, once, for every endpoint that carries P3S frames.

:class:`RpcContract` is the battery; a subclass binds it to a substrate
by supplying a connected ``(server, client)`` pair, a ``sleep`` wait and
a ``run`` that drives protocol bodies to completion
(``tests/net/test_channel_rpc.py::TestRpc`` on the simulator,
``tests/live/test_rpc.py::TestRpcContract`` over loopback TCP).  Every
scenario below is a body under the ports rule — it yields what the
endpoint hands it — so the same lines run on both.
"""

from __future__ import annotations

import pytest

from repro.errors import BrokerError, NetworkError, TransportError
from repro.obs import Observability


class RpcContract:
    timeout_s: float  # how long a call waits for a reply that never comes
    slow_s: float  # how long the slow handler of the correlation test takes

    def pair(self):
        """A fresh ``(server, client)`` pair; the client can reach the server."""
        raise NotImplementedError

    def bystander(self):
        """A second server of the latest pair's client, which it can reach."""
        raise NotImplementedError

    def sleep(self, seconds: float):
        raise NotImplementedError

    def run(self, *bodies) -> list:
        """Drive ``bodies`` on the client, concurrently; their return values."""
        raise NotImplementedError

    def test_call_response(self):
        server, client = self.pair()
        server.serve("double", lambda src, msg: (msg.payload * 2, 8))

        def body():
            return (yield client.call(server.name, "double", b"21", 8))

        assert self.run(body()) == [b"2121"]

    def test_concurrent_calls_correlate(self):
        server, client = self.pair()

        def work(src, msg):
            yield self.sleep(self.slow_s if msg.payload == b"slow" else 0.0)
            return (b"answer-" + msg.payload, 16)

        server.serve("work", work)

        def body(tag):
            return (yield client.call(server.name, "work", tag, 16))

        assert self.run(body(b"slow"), body(b"fast")) == [b"answer-slow", b"answer-fast"]

    def test_duplicate_handler_rejected(self):
        server, _ = self.pair()
        server.serve("x", lambda s, m: (None, 0))
        with pytest.raises(NetworkError):
            server.serve("x", lambda s, m: (None, 0))

    def test_one_way_cast_handler(self):
        server, client = self.pair()
        seen = []
        server.serve("notify", lambda src, msg: seen.append((src, msg.payload)))
        server.serve("sync", lambda src, msg: (None, 8))

        def body():
            yield client.cast(server.name, "notify", b"hello", 16)
            # frames are handled in order: the reply proves the cast landed
            yield client.call(server.name, "sync", None, 8)

        self.run(body())
        assert seen == [(client.name, b"hello")]

    def test_unknown_request_ignored(self):
        server, client = self.pair()

        def body():
            # no handler: the request is dropped, so no reply ever comes
            with pytest.raises(TransportError, match="timed out"):
                yield client.call(server.name, "nope", None, 8, timeout_s=self.timeout_s)

        self.run(body())

    def test_refused_frames_are_counted_and_the_endpoint_keeps_serving(self):
        server, client = self.pair()

        def refuse(src, msg):
            raise BrokerError("a protocol rule refused this frame")

        def refuse_later(src, msg):
            yield self.sleep(0.0)
            raise BrokerError("a protocol rule refused this request")

        server.serve("note", refuse)
        server.serve("ask", refuse_later)
        server.serve("echo", lambda src, msg: (msg.payload, 8))

        def body():
            yield client.cast(server.name, "note", None, 8)
            with pytest.raises(TransportError, match="timed out"):
                yield client.call(server.name, "ask", None, 8, timeout_s=self.timeout_s)
            return (yield client.call(server.name, "echo", b"alive", 8))

        with Observability().installed() as obs:
            assert self.run(body()) == [b"alive"]
            assert obs.metrics.counter_total("op.rpc.frame_rejected") == 2

    def test_reply_goes_to_the_sender_whatever_the_headers_claim(self):
        server, client = self.pair()
        server.serve("echo", lambda src, msg: (msg.payload, 8))

        def body():
            return (
                yield client.call(
                    server.name, "echo", b"mine", 8,
                    headers={"reply_to": "bystander"}, timeout_s=self.timeout_s,
                )
            )  # fmt: skip

        assert self.run(body()) == [b"mine"]

    def test_a_third_partys_response_leaves_the_call_pending(self):
        """Only the peer a request went to can answer it: a bystander the
        client also talks to, which learned the live correlation id, sends
        its response first, and the call still returns the server's."""
        server, client = self.pair()
        bystander = self.bystander()
        asked, forged = [], []

        def ask(src, msg):
            asked.append(msg.headers["corr"])
            while not forged:
                yield self.sleep(0.01)
            return (b"honest", 8)

        server.serve("ask", ask)
        bystander.serve("hello", lambda src, msg: (None, 8))
        client.serve("sync", lambda src, msg: (None, 8))

        def call():
            return (yield client.call(server.name, "ask", None, 8))

        def forge():
            yield client.call(bystander.name, "hello", None, 8)  # now it can push to the client
            while not asked:
                yield self.sleep(0.01)
            response = {"rpc": "response", "corr": asked[0]}
            yield bystander.cast(client.name, "ask:reply", b"forged", 8, headers=response)
            # frames are handled in order: the reply proves the forgery landed
            yield bystander.call(client.name, "sync", None, 8)
            forged.append(True)

        assert self.run(call(), forge())[0] == b"honest"
