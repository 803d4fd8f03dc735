"""A token request at the PBE-TS, first and repeat — ``BENCH_pr55.json``.

Paper §4.3 (Fig. 3): the PBE-TS checks the subscriber's ARA certificate
before it returns a token.  ``TokenIssuer.authorize`` verifies the
certificate's Schnorr signature (two G1 multiplications) once per subject
and exact certificate bytes; a repeat request carrying the same bytes is
checked for role and expiry only, and pays only its token's two G1
multiplications.  A request is served as ``PBETokenServer`` serves it:
``open_request`` → ``authorize`` → ``mint`` → seal the reply under ``K_s``,
at ``PAPER`` on ``default_schema()`` with a one-attribute interest.

Records, in ``BENCH_pr55.json`` (suite ``token_request``):

* ``token_request.PAPER.g1_exp_per_repeat_request`` — ``op.g1_exp`` in
  one repeat request: an exact count, ceiling 2.
  ``tests/perf/test_counted_records.py`` recomputes it on every tier-1
  run;
* ``token_request.PAPER.g1_exp_per_first_request`` — the same in a
  certificate's first request (reported: its signature check's two
  more);
* ``token_request.PAPER.repeat_over_first_wall`` — a repeat request's
  wall time over a first request's, timed back to back in each
  repetition (the one that goes first alternates), each first request
  with a freshly registered certificate; the median of the
  repetitions' ratios, its quartiles in ``workload``.  Ceiling
  ``WALL_CEILING``: the committed run's reading plus a margin, below
  the 1.0 a request reads when every request is checked in full.

The records are measured and their ceilings asserted on every run;
``P3S_WRITE_BENCH=1`` writes ``BENCH_pr55.json``.  ``python
benchmarks/bench_token_request.py`` prints the counts.
"""

from __future__ import annotations

import json
import statistics
import time

from repro.core.ara import RegistrationAuthority
from repro.core.config import default_schema
from repro.core.messages import ok_reply
from repro.core.pbe_ts import TokenIssuer, encode_token_request
from repro.crypto import precompute, randomness
from repro.crypto.group import PairingGroup
from repro.crypto.pke import PKEKeyPair
from repro.crypto.symmetric import SecretBox
from repro.obs import Observability
from repro.pbe.hve import HVE
from repro.pbe.schema import Interest
from repro.perf.bench import BenchRecord

PARAM_SET = "PAPER"
SEED = 55
REPEAT = f"token_request.{PARAM_SET}.g1_exp_per_repeat_request"
FIRST = f"token_request.{PARAM_SET}.g1_exp_per_first_request"
WALL = f"token_request.{PARAM_SET}.repeat_over_first_wall"
WALL_CEILING = 0.8
REPETITIONS = 41
INTEREST = Interest({"attr00": "v03"})


class TokenServer:
    """An ARA and the PBE-TS's issuer and PKE key, on ``default_schema()``."""

    def __init__(self):
        group = PairingGroup(PARAM_SET)
        self.ara = RegistrationAuthority(group, default_schema())
        master_key, verify_key = self.ara.provision_pbe_ts()
        self.issuer = TokenIssuer(HVE(group), master_key, default_schema(), verify_key)
        self.pke = PKEKeyPair(group)
        self.registered = 0

    def certificate(self):
        """A freshly registered subscriber's certificate."""
        self.registered += 1
        return self.ara.register_subscriber(f"s{self.registered}", {"org"}).certificate

    def request(self, certificate) -> bytes:
        """A token request as a subscriber sends it: a fresh ``K_s`` and a
        fresh PKE ciphertext."""
        body = encode_token_request(
            SecretBox.generate_key(), certificate, INTEREST, self.ara.group.zr_bytes
        )
        return self.pke.public.encrypt(body)

    def serve(self, request: bytes) -> bytes:
        """The PBE-TS's work on one request, its modelled waits left out."""
        session_key, certificate, cert_bytes, interest = self.issuer.open_request(
            self.pke, request
        )
        self.issuer.authorize(certificate, cert_bytes, interest, now=0.0)
        token = self.issuer.mint(certificate.subject, interest)
        return SecretBox(session_key).seal(ok_reply(token))


def g1_exp(server: TokenServer, request: bytes) -> float:
    """``op.g1_exp`` in serving ``request``."""
    obs = Observability()
    with obs.installed():
        server.serve(request)
    return obs.metrics.counter_total("op.g1_exp")


def counts() -> dict[str, float]:
    """The two exact counts: a certificate's first request, then a repeat."""
    with randomness.seeded(SEED):
        precompute.clear_caches()
        server = TokenServer()
        certificate = server.certificate()
        first = g1_exp(server, server.request(certificate))
        repeat = g1_exp(server, server.request(certificate))
    precompute.clear_caches()
    return {FIRST: first, REPEAT: repeat}


def wall_ratios() -> list[float]:
    """Per repetition, a repeat request's wall time over a first request's."""
    server = TokenServer()
    known = server.certificate()
    server.serve(server.request(known))  # remembered from here on
    for _ in range(3):  # the keys' comb tables, both paths
        server.serve(server.request(server.certificate()))
    ratios = []
    for index in range(REPETITIONS):
        arms = {"repeat": server.request(known), "first": server.request(server.certificate())}
        wall = {}
        for arm in arms if index % 2 == 0 else reversed(arms):
            start = time.perf_counter()
            server.serve(arms[arm])
            wall[arm] = time.perf_counter() - start
        ratios.append(wall["repeat"] / wall["first"])
    return ratios


def test_token_request_records(capsys, bench_writer):
    measured = counts()
    ratios = wall_ratios()
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    with capsys.disabled():
        print(
            f"\n  token request at {PARAM_SET}: g1_exp first {measured[FIRST]:.0f}, "
            f"repeat {measured[REPEAT]:.0f}; repeat over first wall {median:.3f} "
            f"(quartiles {q1:.3f}-{q3:.3f}, {REPETITIONS} repetitions)"
        )
    assert measured == {FIRST: 4, REPEAT: 2}
    assert median <= WALL_CEILING
    bench_writer(
        "BENCH_pr55.json",
        suite="token_request",
        seed=SEED,
        workload={
            "harness": (
                f"bench_token_request: {PARAM_SET}, default_schema(), interest {{attr00: v03}}; "
                "a request = open_request -> authorize -> mint -> seal; g1_exp = op.g1_exp in "
                "one request under randomness.seeded; wall = perf_counter of a repeat request "
                "(a remembered certificate) and a first request (a freshly registered "
                f"certificate) back to back, the first arm alternating, {REPETITIONS} "
                "repetitions, value = median of the per-repetition ratios"
            ),
            "wall_quartiles": [q1, median, q3],
            "wall_ratios": ratios,
        },
        records=[
            BenchRecord(REPEAT, measured[REPEAT], "count", direction="lower", ceiling=2.0),
            BenchRecord(FIRST, measured[FIRST], "count", direction="lower"),
            BenchRecord(WALL, median, "ratio", direction="lower", ceiling=WALL_CEILING),
        ],
    )


if __name__ == "__main__":
    print(json.dumps(counts()))
