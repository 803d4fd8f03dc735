"""Secure channel layer and RPC endpoint tests."""

import pytest

from repro.errors import ChannelClosedError
from repro.net.channel import TLS_RECORD_OVERHEAD, SecureChannelLayer
from repro.net.network import Network
from repro.net.rpc import RpcEndpoint
from repro.net.simulator import Simulator

from .rpc_contract import RpcContract


def make_pair():
    sim = Simulator()
    net = Network(sim)
    a = SecureChannelLayer(net.add_host("a"))
    b = SecureChannelLayer(net.add_host("b"))
    return sim, net, a, b


class TestSecureChannel:
    def test_record_overhead_added(self):
        sim, net, a, b = make_pair()
        a.send("b", "t", None, 1000)
        assert net.trace[0].size_bytes == 1000 + TLS_RECORD_OVERHEAD

    def test_sequence_numbers_increment(self):
        sim, net, a, b = make_pair()
        received = []

        def receiver():
            for _ in range(3):
                _, message = yield b.receive()
                received.append(message.headers["seq"])

        sim.process(receiver())
        for _ in range(3):
            a.send("b", "t", None, 10)
        sim.run()
        assert received == [0, 1, 2]

    def test_loss_detected_via_gap(self):
        sim, net, a, b = make_pair()
        net.set_drop_filter(lambda src, dst, message: message.headers.get("seq") == 1)

        def receiver():
            while True:
                yield b.receive()

        sim.process(receiver())
        for _ in range(3):
            a.send("b", "t", None, 10)
        sim.run()
        assert b.gaps_detected("a") == 1

    def test_closed_channel_rejects_send(self):
        _, _, a, _ = make_pair()
        a.close()
        with pytest.raises(ChannelClosedError):
            a.send("b", "t", None, 10)


class TestRpc(RpcContract):
    """The contract on the simulator; the clock is simulated, so waits are free."""

    timeout_s = 5.0
    slow_s = 1.0

    def pair(self):
        self.sim, self.net, a, b = make_pair()
        self.server, self.client = RpcEndpoint(b), RpcEndpoint(a)
        self.endpoints = [self.server, self.client]
        return self.server, self.client

    def bystander(self):
        self.endpoints.append(RpcEndpoint(SecureChannelLayer(self.net.add_host("c"))))
        return self.endpoints[-1]

    def sleep(self, seconds):
        return self.sim.timeout(seconds)

    def run(self, *bodies):
        for endpoint in self.endpoints:
            endpoint.start()
        processes = [self.client.drive(body) for body in bodies]
        self.sim.run()
        return [process.value for process in processes]

    def test_generator_handler_simulated_time(self):
        sim, net, a, b = make_pair()
        ra, rb = RpcEndpoint(a), RpcEndpoint(b)

        def handler(src, msg):
            yield sim.timeout(2.0)
            return ("done", 8)

        rb.serve("work", handler)
        ra.start(), rb.start()
        completion = []

        def client():
            yield ra.call("b", "work", None, 8)
            completion.append(sim.now)

        sim.process(client())
        sim.run()
        assert completion[0] > 2.0
