"""``MatchPool`` — fan one publication out across subscriber tokens.

The DS's matching workload is embarrassingly parallel: one HVE ciphertext
evaluated against T independent subscription tokens.  ``MatchPool`` runs
that product either

* **serially** (``workers <= 1``, the default): in-process, through the
  exact same :class:`repro.par.worker.WorkerState` code path the pool
  workers use, or
* **in a process pool** (``workers >= 2``): tokens are chunked, chunks
  are mapped across workers, and results are reassembled by token index —
  so the result list is deterministic and identical to the serial one
  regardless of worker count or scheduling.  ``tests/par/test_pool.py``
  enforces this.

Worker processes are long-lived (created once, reused across
publications) and each holds its own precomputation caches — an HVE
token's Miller-loop setup is paid once per worker, then amortized over
the publication stream.  The ``fork`` start method is preferred (cheap,
inherits the parent's comb tables); ``spawn`` works too because workers
build their state from a picklable parameter tuple.

Metrics go through the process-global :mod:`repro.obs` hooks:

======================  =====================================================
``par.match``           counter — one per (token, ciphertext) evaluation
``par.match_batch``     counter — one per :meth:`MatchPool.match` call
``par.chunk``           counter — chunks dispatched to the pool
``par.match_wall_s``    observation — wall time of one batch
======================  =====================================================
"""

from __future__ import annotations

import multiprocessing
import time

from ..crypto.group import PairingGroup
from ..obs.hooks import observe, record_op
from . import worker as worker_mod

__all__ = ["MatchPool"]


class MatchPool:
    """Evaluate HVE queries for many tokens against one ciphertext.

    Args:
        group: the :class:`PairingGroup` tokens/ciphertexts live in.
        workers: pool size; values ``<= 1`` select the serial in-process
            path.  Pool tasks are balanced so every worker gets at most
            two chunks of tokens.
    """

    def __init__(self, group: PairingGroup, workers: int = 0):
        self.group = group
        self.workers = workers
        self._pool = None
        self._serial_state: worker_mod.WorkerState | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def parallel(self) -> bool:
        return self.workers >= 2

    def start(self) -> "MatchPool":
        """Create the execution backend.

        Lazy — :meth:`match` calls this on first use; calling it eagerly
        moves worker startup out of the latency-critical first match.
        """
        if self._pool is None and self._serial_state is None:
            wire = worker_mod.params_to_wire(self.group.params)
            if self.parallel:
                self._pool = self._context().Pool(
                    processes=self.workers,
                    initializer=worker_mod.init_worker,
                    initargs=(wire,),
                )
            else:
                self._serial_state = worker_mod.WorkerState(wire)
        return self

    @staticmethod
    def _context():
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context("fork" if "fork" in methods else "spawn")

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self._serial_state = None

    def __enter__(self) -> "MatchPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- matching ------------------------------------------------------------

    def match(
        self, ciphertext_bytes: bytes, token_bytes_list: list[bytes]
    ) -> list[bytes | None]:
        """Query every token against the ciphertext.

        Returns one entry per token, in token order: the decrypted payload
        on a predicate match, ``None`` otherwise.  Serial and parallel
        executions return identical lists.
        """
        self.start()
        started = time.perf_counter()
        indexed = list(enumerate(token_bytes_list))
        if not indexed:
            return []
        if self.parallel:
            results = self._match_parallel(ciphertext_bytes, indexed)
        else:
            chunk_results = self._serial_state.match_chunk(ciphertext_bytes, indexed)
            results = [payload for _, payload in chunk_results]
        record_op("par.match_batch")
        record_op("par.match", len(indexed))
        observe("par.match_wall_s", time.perf_counter() - started)
        return results

    def match_indices(
        self, ciphertext_bytes: bytes, token_bytes_list: list[bytes]
    ) -> list[int]:
        """Indices of matching tokens, ascending."""
        results = self.match(ciphertext_bytes, token_bytes_list)
        return [i for i, payload in enumerate(results) if payload is not None]

    def _match_parallel(
        self, ciphertext_bytes: bytes, indexed: list[tuple[int, bytes]]
    ) -> list[bytes | None]:
        size = max(1, -(-len(indexed) // (2 * self.workers)))
        chunks = [indexed[i : i + size] for i in range(0, len(indexed), size)]
        record_op("par.chunk", len(chunks))
        jobs = [(ciphertext_bytes, chunk) for chunk in chunks]
        ordered: list[bytes | None] = [None] * len(indexed)
        for chunk_results in self._pool.map(worker_mod.match_chunk, jobs):
            for index, payload in chunk_results:
                ordered[index] = payload
        return ordered
