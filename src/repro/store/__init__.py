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

from .codec import NS_ITEMS, NS_SUBS, NS_TOKENS
from .engine import BACKENDS, MemoryEngine, StorageEngine, open_engine, open_service_engine
from .faults import (
    CRASH_POINTS,
    FaultPlan,
    SimulatedCrash,
    corrupt_crc,
    corrupt_length,
    tear_tail,
)
from .inspect import format_inspection, inspect_store
from .records import Record
from .wal import RecoveryInfo, WalEngine

__all__ = [
    "BACKENDS",
    "CRASH_POINTS",
    "FaultPlan",
    "MemoryEngine",
    "NS_ITEMS",
    "NS_SUBS",
    "NS_TOKENS",
    "Record",
    "RecoveryInfo",
    "SimulatedCrash",
    "StorageEngine",
    "WalEngine",
    "corrupt_crc",
    "corrupt_length",
    "format_inspection",
    "inspect_store",
    "open_engine",
    "open_service_engine",
    "tear_tail",
]
