"""``MatchPool`` — one publication against every registered token.

Each distinct token byte string lives in exactly one partition
(:class:`repro.par.worker.Partition`) with its Miller lines.  A pool holds
one partition in process until the distinct tokens it is asked to match
reach its parameter set's :data:`SPLIT_AT`; only then, and only with
``workers >= 2``, does it replace that partition with ``workers`` worker
processes, one partition each behind a pipe, and it stays split until
:meth:`MatchPool.close`.
:meth:`MatchPool.match` reconciles the partitions with its token list
(only new and gone tokens move), then sends each the ciphertext bytes
alone.  A dead worker comes back as an empty partition that the next
reconciliation refills; a lock serialises every exchange, so the live DS
may match on several threads at once.  Metrics: counters ``par.match``
(tokens) and ``par.match_batch`` (calls), observation ``par.match_wall_s``.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

from ..crypto.group import PairingGroup
from ..obs.hooks import observe, record_op
from . import worker as worker_mod

__all__ = ["MatchPool", "SPLIT_AT"]

# Distinct tokens, by parameter set, from which two worker partitions beat
# one in process on wall time (benchmarks/bench_match_pool.py,
# BENCH_pr53.json).  Below it a worker costs its resident set, a pickle
# and a pipe round trip a publication, and a second ciphertext decode.  A
# set the sweep does not time splits at the largest of these.
SPLIT_AT = {"TOY": 256, "PAPER": 4}


class _WorkerPartition:
    """A partition in its own process, reached over a pipe."""

    def __init__(self, params):
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        self.connection, child = context.Pipe()
        self.process = context.Process(target=worker_mod.serve, args=(child, params), daemon=True)
        self.process.start()
        child.close()
        self.send, self.recv = self.connection.send, self.connection.recv

    def alive(self) -> bool:
        return self.process.is_alive()

    def close(self) -> None:
        self.connection.close()
        self.process.kill()
        self.process.join()


def _guarded(call, *args):
    """``call(*args)``, or the pipe error it raised: a dead worker."""
    try:
        return call(*args)
    except (EOFError, OSError) as exc:
        return exc


class MatchPool:
    """Evaluate HVE queries for many tokens against one ciphertext.

    Args:
        group: the :class:`PairingGroup` tokens/ciphertexts live in.
        workers: the most partitions, each in its own process, that the
            pool splits into once asked to match its parameter set's
            :data:`SPLIT_AT` distinct tokens; values ``<= 1`` keep one
            in-process partition always.
    """

    def __init__(self, group: PairingGroup, workers: int = 0):
        self.group = group
        self.workers = workers
        self.partitions: list | None = None
        self._home: dict[bytes, int] = {}  # token bytes -> its partition's index
        self._lock = threading.Lock()

    def start(self) -> "MatchPool":
        """Create the in-process partition now, not in the first :meth:`match`."""
        if self.partitions is None:
            self.partitions = [worker_mod.Partition(self.group.params)]
        return self

    def lanes(self, distinct: int) -> int:
        """The partitions a match of ``distinct`` distinct tokens runs on."""
        if self.partitions is not None and len(self.partitions) > 1:
            return len(self.partitions)
        split_at = SPLIT_AT.get(self.group.params.name, max(SPLIT_AT.values()))
        return self.workers if self.workers >= 2 and distinct >= split_at else 1

    def _split(self, distinct: int) -> None:
        """Past the break-even, the one in-process partition gives way to
        ``workers`` worker partitions, which the reconciliation fills."""
        if len(self.partitions) < self.lanes(distinct):
            self.partitions[0].close()  # emptied first: no fork inherits its tokens
            self.partitions = [_WorkerPartition(self.group.params) for _ in range(self.workers)]
            self._home.clear()

    def _restart(self, index: int) -> None:
        dead = self.partitions[index]
        dead.close()
        self.partitions[index] = type(dead)(self.group.params)
        self._home = {data: home for data, home in self._home.items() if home != index}

    def close(self) -> None:
        with self._lock:
            for partition in self.partitions or ():
                partition.close()
            self.partitions = None
            self._home.clear()

    def __enter__(self) -> "MatchPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def match(self, ciphertext_bytes: bytes, token_bytes_list: list[bytes]) -> list[bytes | None]:
        """One entry per token, in token order: the decrypted payload on a
        predicate match, else ``None`` — the same list for any number of
        workers.  A token listed twice is evaluated once."""
        if not token_bytes_list:
            return []
        started = time.perf_counter()
        with self._lock:
            matched = self._exchange(ciphertext_bytes, dict.fromkeys(token_bytes_list))
        record_op("par.match_batch")
        record_op("par.match", len(token_bytes_list))
        observe("par.match_wall_s", time.perf_counter() - started)
        return [matched.get(data) for data in token_bytes_list]

    def match_indices(self, ciphertext_bytes: bytes, token_bytes_list: list[bytes]) -> list[int]:
        """Indices of matching tokens, ascending."""
        results = self.match(ciphertext_bytes, token_bytes_list)
        return [i for i, payload in enumerate(results) if payload is not None]

    def _reconcile(self, wanted: dict[bytes, None]) -> list[tuple[list, list]]:
        """Per partition, the ``(added, dropped)`` that make it hold ``wanted``."""
        self.start()._split(len(wanted))
        for index, partition in enumerate(self.partitions):
            if not partition.alive():
                self._restart(index)
        moves: list[tuple[list, list]] = [([], []) for _ in self.partitions]
        loads = [0] * len(self.partitions)
        for data, index in self._home.items():
            if data in wanted:
                loads[index] += 1
            else:
                moves[index][1].append(data)
        for data in wanted:
            if data not in self._home:
                index = loads.index(min(loads))
                loads[index] += 1
                moves[index][0].append(data)
        return moves

    def _exchange(self, ciphertext_bytes: bytes, wanted: dict[bytes, None]) -> dict[bytes, bytes]:
        """Every request out, then every reply in — all of them, so none is
        left in a pipe — and only then the first failure raised."""
        moves = self._reconcile(wanted)
        partitions = self.partitions
        sent = [_guarded(p.send, (*move, ciphertext_bytes)) for p, move in zip(partitions, moves)]
        replies = [failed or _guarded(p.recv) for p, failed in zip(partitions, sent)]
        matched: dict[bytes, bytes] = {}
        failures = []
        for index, ((added, dropped), reply) in enumerate(zip(moves, replies)):
            if isinstance(reply, (EOFError, OSError)):
                self._restart(index)  # the worker died: back empty, refilled next time
            if isinstance(reply, Exception):
                failures.append(reply)
                continue
            for data in dropped:
                del self._home[data]
            self._home.update(dict.fromkeys(added, index))
            matched.update(reply)
        if failures:
            raise failures[0]
        return matched
