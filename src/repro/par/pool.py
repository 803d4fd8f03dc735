"""``MatchPool`` — one publication against every registered token.

Each distinct token byte string lives in exactly one partition
(:class:`repro.par.worker.Partition`) with its Miller lines: one partition
in process (``workers <= 1``), or one worker process a partition behind a
pipe.  :meth:`MatchPool.match` reconciles the partitions with its token
list (only new and gone tokens move), then sends each the ciphertext bytes
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

__all__ = ["MatchPool"]


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
        workers: partitions, each in its own process; values ``<= 1``
            select one in-process partition.
    """

    def __init__(self, group: PairingGroup, workers: int = 0):
        self.group = group
        self.workers = workers
        self.partitions: list | None = None
        self._home: dict[bytes, int] = {}  # token bytes -> its partition's index
        self._lock = threading.Lock()

    def start(self) -> "MatchPool":
        """Create the partitions now, not in the first :meth:`match`."""
        if self.partitions is None:
            self.partitions = [self._partition() for _ in range(max(1, self.workers))]
        return self

    def _partition(self):
        kind = _WorkerPartition if self.workers >= 2 else worker_mod.Partition
        return kind(self.group.params)

    def _restart(self, index: int) -> None:
        self.partitions[index].close()
        self.partitions[index] = self._partition()
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
        self.start()
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
