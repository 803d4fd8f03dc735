"""Network timing model: serialization, latency, egress queueing, trace."""

import pytest

from repro.errors import RoutingError
from repro.net.network import Message, Network
from repro.net.simulator import Simulator


def make_net(bandwidth=10_000_000, latency=0.045):
    sim = Simulator()
    net = Network(sim, default_bandwidth_bps=bandwidth, latency_s=latency)
    return sim, net


def msg(size, msg_type="data"):
    return Message(msg_type=msg_type, payload=None, size_bytes=size)


class TestTimingModel:
    def test_serialization_plus_latency(self):
        sim, net = make_net()
        a, b = net.add_host("a"), net.add_host("b")
        arrivals = []

        def receiver():
            _, message = yield b.receive()
            arrivals.append(sim.now)

        sim.process(receiver())
        a.send("b", msg(10_000))  # 10 KB at 10 Mbps = 8 ms + 45 ms latency
        sim.run()
        assert arrivals[0] == pytest.approx(0.008 + 0.045)

    def test_egress_queueing(self):
        """Two back-to-back sends serialize one after the other."""
        sim, net = make_net()
        a, b = net.add_host("a"), net.add_host("b")
        arrivals = []

        def receiver():
            for _ in range(2):
                yield b.receive()
                arrivals.append(sim.now)

        sim.process(receiver())
        a.send("b", msg(10_000))
        a.send("b", msg(10_000))
        sim.run()
        assert arrivals[0] == pytest.approx(0.053)
        assert arrivals[1] == pytest.approx(0.008 + 0.008 + 0.045)

    def test_per_link_bandwidth_override(self):
        """The DS→RS hop runs at LAN speed (paper topology)."""
        sim, net = make_net()
        ds, rs = net.add_host("ds"), net.add_host("rs")
        ds.set_link_bandwidth("rs", 100_000_000)
        arrivals = []

        def receiver():
            yield rs.receive()
            arrivals.append(sim.now)

        sim.process(receiver())
        ds.send("rs", msg(100_000))  # 100 KB at 100 Mbps = 8 ms
        sim.run()
        assert arrivals[0] == pytest.approx(0.008 + 0.045)

    def test_distinct_egress_interfaces_parallel(self):
        """Different senders do not share an egress bottleneck."""
        sim, net = make_net()
        a, b, c = net.add_host("a"), net.add_host("b"), net.add_host("c")
        arrivals = {}

        def receiver():
            for _ in range(2):
                src, _ = yield c.receive()
                arrivals[src] = sim.now

        sim.process(receiver())
        a.send("c", msg(10_000))
        b.send("c", msg(10_000))
        sim.run()
        assert arrivals["a"] == pytest.approx(0.053)
        assert arrivals["b"] == pytest.approx(0.053)

    def test_predicted_arrival_matches(self):
        sim, net = make_net()
        a, b = net.add_host("a"), net.add_host("b")
        predicted = a.send("b", msg(10_000))
        actual = []

        def receiver():
            yield b.receive()
            actual.append(sim.now)

        sim.process(receiver())
        sim.run()
        assert actual[0] == pytest.approx(predicted)


class TestBookkeeping:
    def test_duplicate_host_rejected(self):
        _, net = make_net()
        net.add_host("a")
        with pytest.raises(RoutingError):
            net.add_host("a")

    def test_unknown_destination_rejected(self):
        _, net = make_net()
        a = net.add_host("a")
        with pytest.raises(RoutingError):
            a.send("ghost", msg(10))

    def test_byte_counters(self):
        sim, net = make_net()
        a, b = net.add_host("a"), net.add_host("b")

        def receiver():
            yield b.receive()

        sim.process(receiver())
        a.send("b", msg(1234))
        sim.run()
        assert a.bytes_sent == 1234
        assert b.bytes_received == 1234

    def test_trace_records_eavesdropper_view(self):
        sim, net = make_net()
        a, b = net.add_host("a"), net.add_host("b")
        a.send("b", msg(999, msg_type="secret-request"))
        sim.run()
        record = net.trace[0]
        assert (record.src, record.dst, record.size_bytes) == ("a", "b", 999)
        # wire label is the TLS-level view, not the message type
        assert record.wire_label == "tls"


class TestFailureInjection:
    def test_drop_filter_loses_message(self):
        sim, net = make_net()
        a, b = net.add_host("a"), net.add_host("b")
        net.set_fault_injector(lambda src, dst, message, delay: [] if dst == "b" else [delay])
        received = []

        def receiver():
            yield b.receive()
            received.append(True)

        sim.process(receiver())
        a.send("b", msg(100))
        sim.run()
        assert not received
        assert len(net.trace) == 1  # still observed on the wire

    def test_drop_filter_selective(self):
        sim, net = make_net()
        a, b = net.add_host("a"), net.add_host("b")
        net.set_fault_injector(
            lambda src, dst, message, delay: [] if message.msg_type == "bad" else [delay]
        )
        received = []

        def receiver():
            while True:
                _, message = yield b.receive()
                received.append(message.msg_type)

        sim.process(receiver())
        a.send("b", msg(100, "bad"))
        a.send("b", msg(100, "good"))
        sim.run()
        assert received == ["good"]
