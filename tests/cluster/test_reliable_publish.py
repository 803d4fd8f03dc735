"""Reliable publish (PUBACK + retransmit + broker dedup) — the upgrade
that closed docs/CHAOS.md's unretried publisher→DS gap.

Three behaviours under test: a dropped publish frame is retransmitted
until the broker acks; a duplicated frame is acked again but processed
once (the (src, seq) dedup window); and the sequencing header is
transport bookkeeping that never reaches delivery frames.
"""

from __future__ import annotations

from repro.chaos.inject import SimFaultInjector
from repro.chaos.schedule import Fault, FaultSchedule
from repro.core.system import P3SSystem
from repro.mq import messages as frames
from repro.mq.broker import Broker
from repro.mq.messages import JmsFrame
from repro.pbe.schema import Interest

from ..live.conftest import small_config


def _metadata(**overrides):
    base = {"topic": "a", "prio": "lo"}
    base.update(overrides)
    return base


def _ready_system(**config_overrides):
    """One matched subscriber, connected publisher, quiescent sim."""
    system = P3SSystem(small_config(reliable_publish=True, **config_overrides))
    alice = system.add_subscriber("alice", {"org"})
    system.subscribe(alice, Interest({"topic": "a"}))
    system.run()
    publisher = system.add_publisher("pub")
    system.run()  # CONNECT casts flow before any fault is armed
    return system, publisher, alice


def _arm(system, *faults):
    schedule = FaultSchedule(seed=0, profile="manual", faults=tuple(faults))
    injector = SimFaultInjector(schedule, system.sim, epoch=system.now)
    system.set_fault_injector(injector)
    return injector


class TestRetransmit:
    def test_dropped_publish_frames_are_retransmitted(self):
        system, publisher, alice = _ready_system()
        injector = _arm(
            system,
            # swallow the first two pub->ds frames (metadata + payload of
            # the first attempt); retransmission must close the gap
            Fault(kind="drop", start=0.0, end=10_000.0, src="pub", dst="ds", hits=(1, 2)),
        )
        record = publisher.publish(_metadata(), b"must-arrive", policy="org")
        system.run()

        assert sum(injector.applied.values()) == 2  # the drops really fired
        assert [d.payload for d in system.deliveries_for(record)] == [b"must-arrive"]
        assert publisher.connection.publish_retransmits >= 1
        system.close()

    def test_duplicated_publish_is_processed_exactly_once(self):
        system, publisher, alice = _ready_system()
        _arm(
            system,
            Fault(
                kind="duplicate",
                start=0.0,
                end=10_000.0,
                src="pub",
                dst="ds",
                delay_s=0.05,
                hits=(1, 2),
            ),
        )
        record = publisher.publish(_metadata(), b"once-only", policy="org")
        system.run()

        # the copies were acked again but deduped on (src, seq)
        assert system.ds.duplicate_publishes >= 1
        assert [d.payload for d in system.deliveries_for(record)] == [b"once-only"]
        assert alice.stats.duplicates_suppressed == 0  # dedup happened at the broker
        system.close()

    def test_sharded_brokers_ack_and_dedup_independently(self):
        system, publisher, alice = _ready_system(
            ds_shards=2, rs_shards=2, rs_replication=2
        )
        _arm(
            system,
            Fault(kind="drop", start=0.0, end=10_000.0, src="pub", dst="ds0", hits=(1,)),
            Fault(kind="drop", start=0.0, end=10_000.0, src="pub", dst="ds1", hits=(1,)),
        )
        records = [
            publisher.publish(_metadata(), f"r{i}".encode(), policy="org")
            for i in range(6)
        ]
        system.run()
        for record in records:
            assert len(system.deliveries_for(record)) == 1
        assert publisher.connection.publish_retransmits >= 1
        system.close()

    def test_unreliable_publish_still_loses_to_the_same_drop(self):
        # the control: without PUBACK the identical fault loses the
        # publication — proving the retry (not luck) closed the gap
        system = P3SSystem(small_config(reliable_publish=False))
        alice = system.add_subscriber("alice", {"org"})
        system.subscribe(alice, Interest({"topic": "a"}))
        system.run()
        publisher = system.add_publisher("pub")
        system.run()
        _arm(
            system,
            Fault(kind="drop", start=0.0, end=10_000.0, src="pub", dst="ds", hits=(1, 2)),
        )
        record = publisher.publish(_metadata(), b"lost", policy="org")
        system.run()
        assert system.deliveries_for(record) == []
        assert publisher.connection.publish_retransmits == 0
        system.close()


class TestSequenceHeaderHygiene:
    def test_delivery_headers_strip_the_publish_sequence(self):
        frame = JmsFrame(
            message_id=7,
            headers={frames.HDR_PUB_SEQ: 3, "p3s-kind": "metadata"},
        )
        assert Broker.delivery_headers(frame) == {"p3s-kind": "metadata"}
        # and the original frame keeps its header for client retries
        assert frame.headers[frames.HDR_PUB_SEQ] == 3

    def test_no_sequence_header_leaks_to_subscribers_on_the_wire(self):
        system, publisher, _alice = _ready_system()
        to_alice = []

        def recorder(src, dst, message, delay):
            if dst == "alice":
                to_alice.append(message)
            return [delay]  # observe only, drop nothing

        system.network.set_fault_injector(recorder)
        record = publisher.publish(_metadata(), b"clean", policy="org")
        system.run()
        assert len(system.deliveries_for(record)) == 1
        assert to_alice  # the recorder saw the delivery path
        for message in to_alice:
            payload_headers = getattr(message.payload, "headers", {}) or {}
            assert frames.HDR_PUB_SEQ not in payload_headers
        system.close()
