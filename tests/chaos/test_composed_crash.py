"""Composed faults: a network partition racing a WAL snapshot crash.

The scenario the PR 6 store battery cannot produce alone: *while* the
anonymizer is partitioned off (retrieval traffic failing and retrying),
the RS's WAL engine crashes mid-snapshot.  Recovery must hand back
exactly the committed pre-crash state — every publication whose store
call returned, nothing lost, nothing resurrected — and ciphertext that
was TTL-expired and compacted away before the crash must stay
physically absent from every store file (§4.3's verified deletion).
"""

import pytest

from repro.chaos import FaultSchedule
from repro.chaos.inject import SimFaultInjector
from repro.chaos.invariants import check_durability
from repro.chaos.schedule import Fault
from repro.chaos.invariants import scan_files_for
from repro.chaos.oracle import chaos_schema, generate_scenario
from repro.core.config import P3SConfig
from repro.core.system import P3SSystem
from repro.store import WalEngine
from repro.store.faults import FaultPlan, SimulatedCrash

SEED = 13
PARTITION = FaultSchedule(
    seed=SEED,
    profile="composed-crash",
    faults=(Fault("partition", 0.0, 0.6, node="anon"),),
)


@pytest.fixture
def durable_system(tmp_path):
    config = P3SConfig(schema=chaos_schema()).with_(
        store_backend="wal",
        data_dir=str(tmp_path),
        store_fsync=False,
        store_snapshot_every=4,  # small: the publication burst crosses it
    )
    system = P3SSystem(config)
    yield system, str(tmp_path / "rs")
    system.ds.close_match_pool()
    system.ds.store.close()


def test_partition_plus_snapshot_crash_recovers_committed_state(durable_system):
    system, rs_dir = durable_system
    scenario = generate_scenario(SEED, n_subscribers=3, n_publications=6)
    for spec in scenario.subscribers:
        subscriber = system.add_subscriber(spec.name, attributes=set(spec.attributes))
        subscriber.call_timeout_s = 0.3
        subscriber.retry_delay_s = 0.1
        for interest in spec.interests:
            system.subscribe(subscriber, interest)
    system.run()

    # phase 1: a short-TTL publication, expired and compacted away
    # before the crash — its ciphertext must never come back
    publisher = system.add_publisher(scenario.publisher_name)
    publisher.publish(
        scenario.publications[0].metadata_dict,
        b"ephemeral-secret-payload",
        policy=scenario.publications[0].policy,
        ttl_s=0.2,
    )
    system.run()
    engine = system.rs.store.engine
    (expired_guid,) = [g for g, _ in engine.items("items")]
    expired_ciphertext = system.rs.store._items[expired_guid].ciphertext
    removed = system.rs.store.collect_garbage(system.now + 10_000.0, compact=True)
    assert removed == 1
    assert scan_files_for(rs_dir, expired_ciphertext) == []

    # phase 2: mirror committed state (successful returns only), arm the
    # snapshot crash and the partition, publish through both
    committed: dict[bytes, bytes] = {}
    in_flight: list[bytes] = []

    def tracked_put(ns, key, value, _put=engine.put):
        in_flight.append(bytes(key))
        lsn = _put(ns, key, value)
        committed[bytes(key)] = bytes(value)
        in_flight.pop()
        return lsn

    engine.put = tracked_put
    engine._faults = FaultPlan("snapshot.before_rename")
    injector = SimFaultInjector(PARTITION, system.sim)
    injector.arm(system.now)
    system.set_fault_injector(injector)
    # stagger the submissions so the 4th RS put (the snapshot trigger)
    # lands while earlier publications' retrievals are still retrying
    # against the partitioned anonymizer — the two faults must overlap
    for index, publication in enumerate(scenario.publications):
        system.sim.schedule(
            index * 0.08,
            lambda p=publication: publisher.publish(
                p.metadata_dict, p.payload, policy=p.policy, ttl_s=p.ttl_s
            ),
        )
    with pytest.raises(SimulatedCrash):
        system.run()
    system.set_fault_injector(None)
    assert len(in_flight) == 1  # the put whose snapshot died
    assert any(entry["kind"] == "partition" for entry in injector.applied_summary())

    # recovery: a crash runs no destructors — abandon the handle, reopen
    recovered_engine = WalEngine(rs_dir, fsync=False)
    try:
        recovered = dict(recovered_engine.items("items"))
        # the in-flight record's WAL append completed before the snapshot
        # started, so recovery legally replays it; nothing else may differ
        expected = dict(committed)
        expected[in_flight[0]] = recovered[in_flight[0]]
        results = check_durability(expected, recovered)
        assert all(r.passed for r in results), [r.to_dict() for r in results]
        # the pre-crash expired item stays dead: not in the recovered
        # state, its ciphertext in no surviving store file
        assert expired_guid not in recovered
        assert scan_files_for(rs_dir, expired_ciphertext) == []
        # and the reopened store is writable again
        recovered_engine.put("items", b"post-crash", b"ok")
        assert dict(recovered_engine.items("items")).get(b"post-crash") == b"ok"
    finally:
        recovered_engine.close()


def test_crash_free_partition_run_keeps_store_consistent(durable_system):
    """Control: the same partition without the WAL fault loses nothing."""
    system, rs_dir = durable_system
    scenario = generate_scenario(SEED, n_subscribers=3, n_publications=6)
    for spec in scenario.subscribers:
        subscriber = system.add_subscriber(spec.name, attributes=set(spec.attributes))
        subscriber.call_timeout_s = 0.3
        subscriber.retry_delay_s = 0.1
        for interest in spec.interests:
            system.subscribe(subscriber, interest)
    system.run()
    injector = SimFaultInjector(PARTITION, system.sim)
    injector.arm(system.now)
    system.set_fault_injector(injector)
    publisher = system.add_publisher(scenario.publisher_name)
    for publication in scenario.publications:
        publisher.publish(
            publication.metadata_dict,
            publication.payload,
            policy=publication.policy,
            ttl_s=publication.ttl_s,
        )
    system.run()
    system.set_fault_injector(None)
    engine = system.rs.store.engine
    committed = dict(engine.items("items"))
    assert len(committed) == len(scenario.publications)
    recovered_engine = WalEngine(rs_dir, fsync=False)
    try:
        results = check_durability(committed, dict(recovered_engine.items("items")))
        assert all(r.passed for r in results), [r.to_dict() for r in results]
    finally:
        recovered_engine.close()
