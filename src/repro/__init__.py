"""P3S: A Privacy Preserving Publish-Subscribe Middleware — full reproduction.

Reproduces Pal, Lauer, Khoury, Hoff & Loyall (MIDDLEWARE 2012) from
scratch in pure Python: the pairing-based crypto substrate (Type-A Tate
pairing, BSW07 CP-ABE, IP08 HVE), a discrete-event network and mini-JMS
broker, the four P3S third parties (ARA, DS, RS, PBE-TS) plus clients,
the plaintext baseline, the paper's "gadget" privacy-analysis framework,
and the analytic latency/throughput models behind Figures 8-10.

Top-level subpackages:

* :mod:`repro.crypto`   — pairing group, AEAD, PKE, signatures
* :mod:`repro.abe`      — CP-ABE (payload confidentiality)
* :mod:`repro.pbe`      — predicate-based encryption / HVE (interest privacy)
* :mod:`repro.net`      — discrete-event simulator and network
* :mod:`repro.mq`       — mini-JMS topic broker (ActiveMQ stand-in)
* :mod:`repro.core`     — the P3S middleware itself
* :mod:`repro.baseline` — the non-private centralized pub-sub baseline
* :mod:`repro.privacy`  — gadget graphs and privacy analysis
* :mod:`repro.perf`     — performance models and calibration
* :mod:`repro.obs`      — tracing, metrics, SLOs and continuous profiling
* :mod:`repro.live`     — the same protocol as real asyncio TCP services
* :mod:`repro.store`    — durable RS/DS state: memory and sealed-WAL engines
* :mod:`repro.cluster`  — sharded, replicated DS/RS clusters
* :mod:`repro.chaos`    — seeded fault injection and invariant checking
* :mod:`repro.par`      — the DS's token-partitioned match pool
* :mod:`repro.cli`      — the ``python -m repro`` command line
"""

__version__ = "1.0.0"
