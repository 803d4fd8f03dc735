"""DS registries over a durable store: restart without re-registration.

The paper's §6.1 restart story — "a restarted DS needs to wait for
subscribers and publishers to (re)register" — is the cost the
persistence layer removes: with a durable engine the subscription table
and the delegated-matching token registry come back from disk.  With
the memory engine the old semantics hold verbatim
(tests/core/test_recovery.py still passes unchanged).
"""

import os

from repro.core import P3SConfig, P3SSystem
from repro.pbe import AttributeSpec, Interest, MetadataSchema


def make_system(tmp_path, **overrides):
    schema = MetadataSchema([AttributeSpec("topic", ("a", "b", "c", "d"))])
    config = P3SConfig(
        schema=schema,
        store_backend="wal",
        data_dir=str(tmp_path / "data"),
        **overrides,
    )
    return P3SSystem(config)


class TestDurableDSRestart:
    def test_subscriptions_survive_ds_restart(self, tmp_path):
        system = make_system(tmp_path)
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "a"}))
        system.run()
        publisher = system.add_publisher("bob")
        system.run()
        assert system.ds.registered_subscriber_count == 1

        system.ds.crash()
        system.ds.restart()
        # no re-registration needed: the table came back from the store
        assert system.ds.recovered_registrations >= 1
        assert system.ds.registered_subscriber_count == 1
        record = publisher.publish({"topic": "a"}, b"post-restart", policy="org:acme")
        system.run()
        assert [d.payload for d in system.deliveries_for(record)] == [b"post-restart"]

    def test_delegated_tokens_survive_ds_restart(self, tmp_path):
        system = make_system(tmp_path, delegated_matching=True, match_workers=1)
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "a"}))
        system.run()
        assert len(system.ds.registered_tokens) == 1
        tokens_before = list(system.ds.registered_tokens)

        system.ds.crash()
        assert list(system.ds.registered_tokens) == []  # in-process copy died
        system.ds.restart()
        assert list(system.ds.registered_tokens) == tokens_before

        publisher = system.add_publisher("bob")
        system.run()
        record = publisher.publish({"topic": "a"}, b"matched", policy="org:acme")
        system.run()
        assert [d.payload for d in system.deliveries_for(record)] == [b"matched"]
        system.ds.close_match_pool()

    def test_token_unregistration_is_durable_too(self, tmp_path):
        system = make_system(tmp_path, delegated_matching=True, match_workers=1)
        alice = system.add_subscriber("alice", {"org:acme"})
        interest = Interest({"topic": "a"})
        system.subscribe(alice, interest)
        system.run()
        assert len(system.ds.registered_tokens) == 1
        alice.unsubscribe(interest)
        system.run()
        assert list(system.ds.registered_tokens) == []
        system.ds.crash()
        system.ds.restart()
        # the tombstoned registration must not be resurrected
        assert list(system.ds.registered_tokens) == []
        system.ds.close_match_pool()

    def test_store_files_land_under_data_dir(self, tmp_path):
        system = make_system(tmp_path)
        alice = system.add_subscriber("alice", {"org:acme"})
        system.subscribe(alice, Interest({"topic": "a"}))
        system.run()
        assert os.path.exists(tmp_path / "data" / "ds" / "wal.log")
        assert os.path.exists(tmp_path / "data" / "rs" / "wal.log")
