"""Deterministic fault injection for the storage engines.

Crash recovery is only trustworthy if it is *testable*: every claim in
``docs/PERSISTENCE.md`` ("a SIGKILL at any point loses at most the
un-fsynced suffix") maps to a named crash point here, and the battery in
``tests/store/test_crash_recovery.py`` fires each one, restarts, and
asserts the recovered state equals the pre-crash committed state.

A :class:`FaultPlan` is armed with a crash point name and a hit count;
the engine calls :meth:`FaultPlan.fire` at each instrumented point, and
on the matching hit a :class:`SimulatedCrash` propagates out of the
write path — the in-process stand-in for ``kill -9`` between two
syscalls.  Armed at ``append.partial_write``, it makes the engine write
only a prefix of the frame before dying, which is how a torn tail is
manufactured on purpose.

Crash points instrumented in :class:`~repro.store.wal.WalEngine`:

==========================  ====================================================
``append.before_write``     nothing of the record reaches the file
``append.partial_write``    a prefix of the frame is written (torn tail)
``append.after_write``      full frame written, no fsync yet
``append.after_fsync``      record durable; crash after the commit point
``snapshot.before_rename``  snapshot temp file written, not yet visible
``snapshot.after_rename``   snapshot live, old log not yet truncated
``compact.after_truncate``  log truncated after a compaction snapshot
==========================  ====================================================

Damage a crash cannot produce (bit rot in the middle of a log, a garbage
length field) is done to the files by the tests themselves
(``tests/store/damage.py``).
"""

from __future__ import annotations

from collections import Counter

from ..errors import StorageError

__all__ = ["SimulatedCrash", "FaultPlan", "CRASH_POINTS"]

CRASH_POINTS = (
    "append.before_write",
    "append.partial_write",
    "append.after_write",
    "append.after_fsync",
    "snapshot.before_rename",
    "snapshot.after_rename",
    "compact.after_truncate",
)


class SimulatedCrash(BaseException):
    """Raised by an armed :class:`FaultPlan`: the process 'died' here.

    Tests catch this at the engine boundary, drop the engine object
    without closing it (a real crash runs no destructors), and re-open
    the directory to exercise recovery.  Like ``SystemExit`` it is no
    :class:`Exception`: a process that died handles nothing, so no
    error handler — an RPC endpoint refusing a frame, a retry loop —
    may catch it and carry on.
    """


class FaultPlan:
    """Crash at the Nth visit to one named point."""

    def __init__(self, point: str, hit: int = 1):
        if point not in CRASH_POINTS:
            raise StorageError(
                f"unknown crash point {point!r}; expected one of {CRASH_POINTS}"
            )
        self.point = point
        self.hit = hit
        self.hits: Counter[str] = Counter()

    def would_fire(self, point: str) -> bool:
        """Record one visit; True when this is the armed point's Nth hit.

        Used by the engine for points that must do damage *before*
        dying (the partial write); plain points use :meth:`fire`.
        """
        self.hits[point] += 1
        if point == self.point and self.hits[point] == self.hit:
            return True
        return False

    def fire(self, point: str) -> None:
        """Record one visit; raise :class:`SimulatedCrash` on the match."""
        if self.would_fire(point):
            raise SimulatedCrash(f"injected crash at {point} (hit {self.hit})")
