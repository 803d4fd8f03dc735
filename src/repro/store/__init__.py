"""``repro.store`` — durable persistence for RS/DS state.

The paper's prototype keeps Repository Server state in Apache Derby and
treats timely, *verifiable* deletion as a privacy requirement (§4.3: an
item must be gone after ``TTL_item + T_G``).  This package is that
storage layer for the reproduction: a pluggable
:class:`~repro.store.engine.StorageEngine` with two backends —

* ``memory`` — non-durable dicts (the simulator default);
* ``wal`` — append-only log of CRC-checksummed, AEAD-sealed records
  with snapshot/compaction and torn-tail-tolerant crash recovery (the
  Derby analogue);

plus deterministic fault injection (:mod:`repro.store.faults`) so the
recovery path is tested, not trusted, and keyless file inspection
(:mod:`repro.store.inspect`) behind ``repro store inspect``.

See ``docs/PERSISTENCE.md`` for the record format, the recovery
protocol, and the deletion/compaction guarantees.
"""

from .engine import MemoryEngine, StorageEngine, open_service_engine
from .inspect import format_inspection, inspect_store
from .wal import WalEngine

__all__ = [
    "MemoryEngine",
    "StorageEngine",
    "WalEngine",
    "format_inspection",
    "inspect_store",
    "open_service_engine",
]
