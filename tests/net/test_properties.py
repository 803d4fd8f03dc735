"""Property-based tests of simulator and network invariants."""

from hypothesis import given, settings, strategies as st

from repro.net.network import Message, Network
from repro.net.simulator import Simulator


class TestSimulatorProperties:
    @settings(max_examples=50)
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20))
    def test_callbacks_fire_in_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append((sim.now, d)))
        sim.run()
        observed_times = [t for t, _ in fired]
        assert observed_times == sorted(observed_times)
        # each callback fires exactly at its delay
        assert all(t == d for t, d in fired)
        assert len(fired) == len(delays)

    @settings(max_examples=30)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=10),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_run_until_is_a_clean_cut(self, delays, cutoff):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run(until=cutoff)
        assert all(d <= cutoff for d in fired)
        assert sim.now == max([cutoff] + [d for d in delays if d <= cutoff])
        sim.run()
        assert sorted(fired) == sorted(delays)

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=30))
    def test_store_preserves_fifo(self, count):
        sim = Simulator()
        store = sim.store()
        received = []

        def consumer():
            for _ in range(count):
                received.append((yield store.get()))

        sim.process(consumer())
        for item in range(count):
            store.put(item)
        sim.run()
        assert received == list(range(count))


class TestNetworkProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=100_000), min_size=1, max_size=15))
    def test_fifo_per_sender_pair(self, sizes):
        """Messages between one host pair arrive in send order, whatever
        their sizes (egress serialization preserves order)."""
        sim = Simulator()
        net = Network(sim)
        a, b = net.add_host("a"), net.add_host("b")
        received = []

        def receiver():
            for _ in range(len(sizes)):
                _, message = yield b.receive()
                received.append(message.headers["index"])

        sim.process(receiver())
        for index, size in enumerate(sizes):
            a.send("b", Message("m", None, size, headers={"index": index}))
        sim.run()
        assert received == list(range(len(sizes)))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=50_000), min_size=1, max_size=10))
    def test_byte_conservation(self, sizes):
        sim = Simulator()
        net = Network(sim)
        a, b = net.add_host("a"), net.add_host("b")

        def receiver():
            for _ in range(len(sizes)):
                yield b.receive()

        sim.process(receiver())
        for size in sizes:
            a.send("b", Message("m", None, size))
        sim.run()
        assert a.bytes_sent == b.bytes_received == sum(sizes)
        assert len(net.trace) == len(sizes)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=1, max_value=1_000_000),
        st.floats(min_value=0.001, max_value=1.0),
    )
    def test_arrival_time_formula(self, size, latency):
        """arrival = ser(size) + ℓ for a single message on an idle egress."""
        sim = Simulator()
        net = Network(sim, default_bandwidth_bps=10_000_000, latency_s=latency)
        a, b = net.add_host("a"), net.add_host("b")
        predicted = a.send("b", Message("m", None, size))
        expected = (size * 8) / 10_000_000 + latency
        assert abs(predicted - expected) < 1e-9
