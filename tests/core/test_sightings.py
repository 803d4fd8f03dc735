"""The sightings hook: a no-op until a harness installs a recorder."""

from repro.core import sightings
from repro.core.sightings import Recorder, opened


def test_nothing_is_kept_without_a_recorder():
    opened("rs", "source", "alice")
    with Recorder() as recorder:
        pass
    opened("rs", "source", "alice")
    assert recorder.sightings == []
    assert sightings._recorder is None


def test_seen_filters_by_kind_and_party():
    with Recorder() as recorder:
        opened("rs0", "source", "anon")
        opened("rs1", "source", "alice")
        opened("anon", "link", ("alice", "rs1"))
    assert recorder.seen("source") == ["anon", "alice"]
    assert recorder.seen("source", "rs1") == ["alice"]
    assert recorder.seen("link", "rs0", "anon") == [("alice", "rs1")]


def test_a_recorder_uninstalls_only_itself():
    first, second = Recorder(), Recorder()
    first.__enter__()
    with second:  # replaces first
        first.__exit__(None, None, None)  # first is not installed: a no-op
        opened("ds", "frame", ("p3s.metadata", 40))
    assert first.sightings == [] and second.seen("frame") == [("p3s.metadata", 40)]
    assert sightings._recorder is None
