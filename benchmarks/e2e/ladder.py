"""The layer ladder: each layer's primitive, called directly, timed alone.

One rung per primitive from F_q arithmetic up to a secure RPC round
trip, run once per traced run on seeded inputs.  Every rung is the
median of a fixed number of timings (a timing of a microsecond-scale
rung is one pass of a fixed-length loop, and includes the loop's own
overhead).  Crypto rungs run at ``TOY`` and at ``PAPER``; the rest do
not depend on the parameter set.

The numbers say what a layer costs in isolation; the traced workload
says how often a publication pays it.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import tempfile
import time

from repro.abe.hybrid import HybridCPABE
from repro.core.ara import RegistrationAuthority
from repro.core.config import default_schema
from repro.crypto import precompute
from repro.crypto.field import Fq2, fq_inv
from repro.crypto.group import PairingGroup
from repro.crypto.pairing import (
    final_exponentiation,
    miller_eval,
    miller_loop,
    precompute_miller,
)
from repro.crypto.pke import PKEKeyPair
from repro.crypto.signing import SigningKeyPair
from repro.crypto.symmetric import SecretBox
from repro.live.channel import ServerIdentity
from repro.live.rpc import AddressBook, LiveRpcEndpoint
from repro.live.wire import decode_frame, encode_frame
from repro.net.transport import TransportMessage
from repro.pbe.hve import HVE
from repro.store import MemoryEngine, WalEngine

from speed import SpeedGauge
from stats import median

__all__ = ["PARAM_SETS", "CRYPTO_RUNGS", "SHARED_RUNGS", "run_ladder"]

clock = time.perf_counter

PARAM_SETS = ("TOY", "PAPER")
VECTOR_BITS = default_schema().vector_length  # 40, the workloads' HVE vector

# (rung, unit) per parameter set, reported as ladder.<P>.<rung>
CRYPTO_RUNGS = (
    ("field.mul_us", "us"),
    ("field.inv_us", "us"),
    ("field.fq2_mul_us", "us"),
    ("curve.add_us", "us"),
    ("curve.double_us", "us"),
    ("curve.scalar_mul_ms", "ms"),
    ("curve.fixed_base_mul_ms", "ms"),
    ("curve.hash_to_point_ms", "ms"),
    ("pairing.miller_ms", "ms"),
    ("pairing.final_exp_ms", "ms"),
    ("pairing.miller_eval_ms", "ms"),
    ("pairing.precompute_ms", "ms"),
    ("hve.encrypt_ms", "ms"),
    ("hve.gen_token_ms", "ms"),
    ("hve.query_cold_ms", "ms"),
    ("hve.query_warm_ms", "ms"),
    ("abe.keygen_10_ms", "ms"),
    ("abe.encrypt_1_ms", "ms"),
    ("abe.encrypt_10_ms", "ms"),
    ("abe.decrypt_1_ms", "ms"),
    ("abe.decrypt_10_ms", "ms"),
    ("pke.encrypt_ms", "ms"),
    ("pke.decrypt_ms", "ms"),
    ("signing.verify_ms", "ms"),
)
# reported as ladder.<rung>
SHARED_RUNGS = (
    ("symmetric.seal_us_per_kib", "us/KiB"),
    ("symmetric.open_us_per_kib", "us/KiB"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("rpc.echo_ms", "ms"),
    ("store.wal_append_fsync_us", "us"),
    ("store.wal_append_nofsync_us", "us"),
    ("store.memory_put_us", "us"),
)


def _timed(work, repeats: int, scale: float, per: int = 1, keep: list | None = None) -> float:
    """Median over ``repeats`` timings of ``work()``, in ``scale`` units
    per operation (``work`` performs ``per`` operations), corrected for
    the machine's speed just before.  ``keep`` receives the last call's
    result, for the rung that consumes it."""
    gauge = SpeedGauge()
    for _ in range(3):
        gauge.sample()
    scale *= gauge.factor(gauge.at[0])
    samples = []
    for _ in range(repeats):
        started = clock()
        result = work()
        samples.append((clock() - started) * scale / per)
    if keep is not None:
        keep.append(result)
    return median(samples)


def _crypto_rungs(params: str, rng: random.Random, repeats: int, smoke: bool) -> dict:
    out_of = 20 if smoke else 1  # smoke shrinks the inner loops
    group = PairingGroup(params)
    q, order = group.params.q, group.order
    rung: dict[str, float] = {}

    # -- F_q and F_q^2 ---------------------------------------------------------
    a, b = rng.randrange(1, q), rng.randrange(1, q)
    loop = max(1, 2000 // out_of)

    def field_mul():
        for _ in range(loop):
            a * b % q

    def field_inv():
        for _ in range(loop):
            fq_inv(a, q)

    x, y = Fq2(a, b, q), Fq2(b, a, q)

    def fq2_mul():
        for _ in range(loop):
            x * y

    rung["field.mul_us"] = _timed(field_mul, repeats, 1e6, loop)
    rung["field.inv_us"] = _timed(field_inv, repeats, 1e6, loop)
    rung["field.fq2_mul_us"] = _timed(fq2_mul, repeats, 1e6, loop)

    # -- curve -------------------------------------------------------------------
    g = group.generator
    scalars = [rng.randrange(1, order) for _ in range(repeats + 2)]
    p1, p2 = g * scalars[-1], g * scalars[-2]
    loop = max(1, 200 // out_of)

    def add():
        for _ in range(loop):
            p1 + p2

    def double():
        for _ in range(loop):
            p1.double()

    rung["curve.add_us"] = _timed(add, repeats, 1e6, loop)
    rung["curve.double_us"] = _timed(double, repeats, 1e6, loop)
    # a base seen once never earns a comb table: this is the windowed ladder
    bases = iter([p1 + g * k for k in scalars[:repeats]])
    rung["curve.scalar_mul_ms"] = _timed(lambda: next(bases) * scalars[0], repeats, 1e3)
    precompute.warm_generator(group)
    keys = iter(scalars)
    rung["curve.fixed_base_mul_ms"] = _timed(lambda: g * next(keys), repeats, 1e3)
    labels = iter([b"ladder-%d" % rng.getrandbits(64) for _ in range(repeats)])
    rung["curve.hash_to_point_ms"] = _timed(
        lambda: group.hash_to_g1(next(labels)), repeats, 1e3
    )

    # -- pairing -----------------------------------------------------------------
    rung["pairing.miller_ms"] = _timed(lambda: miller_loop(p1, p2), repeats, 1e3)
    f = miller_loop(p1, p2)
    rung["pairing.final_exp_ms"] = _timed(
        lambda: final_exponentiation(f, group.params), repeats, 1e3
    )
    rung["pairing.precompute_ms"] = _timed(lambda: precompute_miller(p1), repeats, 1e3)
    lines = precompute_miller(p1)
    rung["pairing.miller_eval_ms"] = _timed(lambda: miller_eval(lines, p2), repeats, 1e3)

    # -- HVE at the workloads' vector length ---------------------------------------
    hve = HVE(group)
    public, master = hve.setup(VECTOR_BITS)
    vector = [rng.randrange(2) for _ in range(VECTOR_BITS)]
    guid = rng.randbytes(16)
    # the third use of a base builds its comb table (smoke: stays cold)
    for _ in range(0 if smoke else 3):
        hve.encrypt(public, vector, guid)
    made: list = []
    rung["hve.encrypt_ms"] = _timed(
        lambda: hve.encrypt(public, vector, guid), repeats, 1e3, keep=made
    )
    ciphertext = made.pop()
    # one constrained attribute = its four bits, the rest wildcards
    interest = vector[:4] + [None] * (VECTOR_BITS - 4)
    rung["hve.gen_token_ms"] = _timed(lambda: hve.gen_token(master, interest), repeats, 1e3)
    fresh = iter([hve.gen_token(master, interest) for _ in range(repeats)])
    rung["hve.query_cold_ms"] = _timed(
        lambda: hve.query(next(fresh), ciphertext), repeats, 1e3
    )
    token = hve.gen_token(master, interest)
    warm = HVE(group, match_cache_size=0)  # no memo: every query runs its pairings
    warm.query(token, ciphertext)
    rung["hve.query_warm_ms"] = _timed(lambda: warm.query(token, ciphertext), repeats, 1e3)

    # -- CP-ABE by policy size, 1 KiB payload ----------------------------------------
    abe = HybridCPABE(group)
    abe_public, abe_master = abe.setup()
    attributes = {f"attr:{i}" for i in range(10)}
    payload = rng.randbytes(1024)
    one, ten = "attr:0", " and ".join(sorted(attributes))
    rung["abe.keygen_10_ms"] = _timed(
        lambda: abe.keygen(abe_master, attributes), repeats, 1e3, keep=made
    )
    key = made.pop()
    for size, policy in (("1", one), ("10", ten)):
        rung[f"abe.encrypt_{size}_ms"] = _timed(
            lambda: abe.encrypt(abe_public, payload, policy), repeats, 1e3, keep=made
        )
        sealed = made.pop()
        rung[f"abe.decrypt_{size}_ms"] = _timed(lambda: abe.decrypt(key, sealed), repeats, 1e3)

    # -- PKE and signatures -----------------------------------------------------------
    pke = PKEKeyPair(group)
    message = rng.randbytes(64)
    rung["pke.encrypt_ms"] = _timed(
        lambda: pke.public.encrypt(message), repeats, 1e3, keep=made
    )
    boxed = made.pop()
    rung["pke.decrypt_ms"] = _timed(lambda: pke.decrypt(boxed), repeats, 1e3)
    signer = SigningKeyPair(group)
    signature = signer.sign(message)
    rung["signing.verify_ms"] = _timed(
        lambda: signer.verify_key.verify(message, signature), repeats, 1e3
    )
    return rung


async def _rpc_echo_ms(repeats: int) -> float:
    """One secure ``call`` round trip on loopback, trivial handler."""
    group = PairingGroup("TOY")
    ara = RegistrationAuthority(group, default_schema())
    verify_key = ara.directory.ara_verify_key
    server = LiveRpcEndpoint(
        "echo",
        AddressBook(),
        ara_verify_key=verify_key,
        identity=ServerIdentity.issue(ara, group, "echo"),
    )
    server.serve("echo", lambda src, message: (message.payload, len(message.payload)))
    host, port = await server.start_server()
    book = AddressBook()
    book.register("echo", host, port, server.identity.service_key)
    client = LiveRpcEndpoint("caller", book, ara_verify_key=verify_key)
    try:
        payload = b"x" * 256
        await client.call("echo", "echo", payload)  # dial and handshake
        samples = []
        for _ in range(repeats):
            started = clock()
            await client.call("echo", "echo", payload)
            samples.append((clock() - started) * 1e3)
        return median(samples)
    finally:
        await client.close()
        await server.close()


def _shared_rungs(rng: random.Random, repeats: int, out_dir: str) -> dict:
    rung: dict[str, float] = {}
    box = SecretBox(rng.randbytes(32))
    kib = 16
    plaintext = rng.randbytes(kib * 1024)
    rung["symmetric.seal_us_per_kib"] = _timed(lambda: box.seal(plaintext), repeats, 1e6, kib)
    sealed = box.seal(plaintext)
    rung["symmetric.open_us_per_kib"] = _timed(lambda: box.open(sealed), repeats, 1e6, kib)

    frame = TransportMessage(
        "jms.publish", rng.randbytes(1024), src="pub", headers={"p3s-kind": "payload", "corr": 7}
    )
    loop = 50

    def encode():
        for _ in range(loop):
            encode_frame(frame)

    encoded = encode_frame(frame)

    def decode():
        for _ in range(loop):
            decode_frame(encoded)

    rung["wire.encode_us"] = _timed(encode, repeats, 1e6, loop)
    rung["wire.decode_us"] = _timed(decode, repeats, 1e6, loop)
    rung["rpc.echo_ms"] = asyncio.run(_rpc_echo_ms(repeats * 4))

    value = rng.randbytes(1024)
    appends = 20
    store_dir = tempfile.mkdtemp(prefix="ladder-store-", dir=out_dir)
    try:
        for label, fsync in (("fsync", True), ("nofsync", False)):
            engine = WalEngine(f"{store_dir}/{label}", fsync=fsync, snapshot_every=0)
            keys = iter(range(repeats * appends))

            def append():
                for _ in range(appends):
                    engine.put("items", next(keys).to_bytes(8, "big"), value)

            rung[f"store.wal_append_{label}_us"] = _timed(append, repeats, 1e6, appends)
            engine.close()
    finally:
        shutil.rmtree(store_dir)
    memory = MemoryEngine()
    keys = iter(range(repeats * appends))

    def put():
        for _ in range(appends):
            memory.put("items", next(keys).to_bytes(8, "big"), value)

    rung["store.memory_put_us"] = _timed(put, repeats, 1e6, appends)
    return rung


def run_ladder(seed: int, out_dir: str, smoke: bool = False) -> dict:
    """``{metric name: (value, unit)}`` for every ladder rung."""
    rng = random.Random(f"p3s-e2e:ladder:{seed}")
    repeats = 1 if smoke else 5
    metrics = {}
    for params in PARAM_SETS:
        # heavy PAPER rungs take hundreds of milliseconds each
        measured = _crypto_rungs(
            params, rng, min(repeats, 3) if params == "PAPER" else repeats, smoke
        )
        for rung, unit in CRYPTO_RUNGS:
            metrics[f"ladder.{params}.{rung}"] = (measured[rung], unit)
    measured = _shared_rungs(rng, repeats, out_dir)
    for rung, unit in SHARED_RUNGS:
        metrics[f"ladder.{rung}"] = (measured[rung], unit)
    return metrics
