"""Deployment configuration and the compute-timing model for P3S runs.

Two kinds of time exist in an end-to-end run:

* **network time** — computed by the simulator from byte-accurate message
  sizes, link bandwidths and the fixed latency (Table 1);
* **compute time** — encryption/decryption/matching costs.  Services and
  clients advance the simulated clock by the amounts in
  :class:`ComputeTimings` (defaults are the paper's measured prototype
  values; :mod:`repro.perf.calibrate` can substitute values measured from
  *our* primitives so the whole reproduction is self-consistent).

The real cryptography still executes (correctness is enforced end to
end); the timing model just decouples simulated time from the speed of
pure-Python bignum arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..pbe.schema import AttributeSpec, MetadataSchema

__all__ = ["ComputeTimings", "P3SConfig", "default_schema"]


@dataclass(frozen=True)
class ComputeTimings:
    """Per-operation compute costs in seconds.

    Defaults follow the paper's §6.2 prototype measurements:
    PBE encrypt ≈ 30 ms, PBE match ≈ 38 ms, CP-ABE decrypt ≈ 12 ms,
    CP-ABE encrypt "fairly fast" (≈ 3 ms), baseline per-subscription
    match ≈ 0.05 ms.
    """

    pbe_encrypt: float = 0.030
    pbe_match: float = 0.038
    pbe_token_gen: float = 0.030
    cpabe_encrypt: float = 0.003
    cpabe_decrypt: float = 0.012
    pke_op: float = 0.002  # one server-key encrypt/decrypt (TLS/RSA in the prototype)
    symmetric_per_byte: float = 25e-9  # ~40 MB/s bulk crypto
    baseline_match: float = 0.00005  # "simple XPath matching ... roughly .05ms"

    def symmetric(self, num_bytes: int) -> float:
        return num_bytes * self.symmetric_per_byte


def default_schema() -> MetadataSchema:
    """The metadata space of Table 1 (P = 40 bits).

    Ten attributes with 16 values each: 10 × 4 = 40 bits of metadata.  The
    default symbol encoding makes that an HVE vector of 10 positions of 16
    symbols; ``MetadataSchema(default_schema().attributes, "bit")`` is the
    paper's 40 binary positions.
    """
    return MetadataSchema(
        [
            AttributeSpec(f"attr{i:02d}", tuple(f"v{j:02d}" for j in range(16)))
            for i in range(10)
        ]
    )


@dataclass(frozen=True)
class P3SConfig:
    """Everything needed to stand up one P3S deployment.

    Attributes mirror Table 1 where applicable; ``t_g`` is the RS
    garbage-collection grace period T_G of §4.3 ("Deletion"), and
    ``use_anonymizer`` toggles the anonymization service (the paper's
    basic privacy properties hold without it; §4.1).
    """

    param_set: str = "TOY"
    schema: MetadataSchema = field(default_factory=default_schema)
    timings: ComputeTimings = field(default_factory=ComputeTimings)
    bandwidth_bps: float = 10_000_000  # ℬ, Table 1
    lan_bandwidth_bps: float = 100_000_000  # DS→RS hop (§6.2)
    latency_s: float = 0.045  # ℓ, Table 1
    t_g: float = 60.0  # RS grace period T_G
    rs_gc_interval_s: float = 10.0
    use_anonymizer: bool = True
    # a repro.core.pbe_ts.SubscriptionPolicy, or None for the paper's
    # open model ("legitimate clients may, within a metadata space,
    # register any subscription", §2)
    subscription_policy: object | None = None
    # a repro.obs.Observability instance to trace/profile this deployment
    # (installed process-wide on system construction), or None: every
    # instrumentation hook stays a no-op
    obs: object | None = None
    # -- delegated matching (DS-side pre-filtering; see repro.core.ds) --
    # When True, subscribers register their PBE tokens with the DS, which
    # matches publications against them (via a repro.par.MatchPool) and
    # narrows the metadata fan-out to matching subscribers.  Trades
    # interest privacy at the DS for bandwidth; delivery sets are
    # unchanged (tests/par/test_equivalence.py proves it).
    delegated_matching: bool = False
    # The most worker processes the DS's MatchPool forks, and only once its
    # registry holds repro.par.pool.SPLIT_AT distinct tokens (256 at TOY, 4
    # at PAPER); below that, and for values <= 1, it matches in process.
    match_workers: int = 0
    # -- durable persistence (repro.store; see docs/PERSISTENCE.md) --
    # Backend for RS items and DS registrations: "memory" (default, the
    # historical purely-in-memory behaviour) or "wal", which needs
    # ``data_dir``; each service gets its own subtree
    # (``<data_dir>/rs``, ``<data_dir>/ds``).
    store_backend: str = "memory"
    data_dir: str | None = None
    # 32-byte at-rest AEAD key sealing record values, or None for clear
    store_key: bytes | None = None
    # fsync every WAL append (turn off only in benchmarks/tests)
    store_fsync: bool = True
    # WAL records between automatic snapshot+compaction passes
    store_snapshot_every: int = 1024
    # -- horizontal scaling (repro.cluster; see docs/CLUSTER.md) --
    # Shard counts for the DS and RS tiers.  Every deployment routes
    # through the ClusterMap carried in the ServiceDirectory: 1/1
    # (default) is a map of one node of each role ("ds", "rs"); anything
    # larger builds consistent-hash rings over "ds0..", "rs0..".
    # Publications route to the GUID's DS shard; RS items are written to
    # ``rs_replication`` ring successors and retrieval fails over
    # across them.
    ds_shards: int = 1
    rs_shards: int = 1
    rs_replication: int = 1
    # -- reliable publish (PUBACK + bounded retransmit; see docs/CHAOS.md) --
    # When True publishers wait for the DS's PUBACK and retransmit with
    # jittered exponential backoff, closing the unretried publish-cast
    # gap.  Off by default for the same reason call_timeout_s defaults
    # to None: the ack timeout holds the simulation open past
    # quiescence on loss-free runs.  The chaos runner always enables it.
    reliable_publish: bool = False

    def with_(self, **overrides) -> "P3SConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)
