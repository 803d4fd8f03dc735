"""Bit-identity of every fast path against its naive counterpart.

The PR-2 performance work (fixed-base comb tables, Miller-loop
precomputation, delegated parallel matching) is only admissible because
each fast path produces *exactly* the bytes of the slow one.  This module
is that contract:

* comb-table scalar multiplication vs reference double-and-add, including
  ``k = 0``, ``k < 0``, ``k ≥ r`` and ``k`` beyond the table width;
* precomputed Miller evaluation vs the plain Miller loop, pre- and
  post-final-exponentiation;
* ``HVE.query`` vs the textbook multi-pairing of ``tests/pbe/reference.py``;
* a delegated-matching deployment vs the baseline broadcast deployment —
  byte-identical delivery sets, on ``default_schema()`` under both
  encodings;
* the DS's match pool forks its workers only at ``SPLIT_AT`` distinct
  tokens: `sim-churn`'s registry forks none, crossing the constant forks
  exactly ``match_workers``, and delivery sets equal those of
  ``match_workers=0`` either way.
"""

from __future__ import annotations

import itertools
import multiprocessing
import random

import pytest

from repro.core.config import P3SConfig, default_schema
from repro.core.system import P3SSystem
from repro.crypto.curve import Point, fixed_base_table
from repro.crypto import randomness
from repro.crypto.group import PairingGroup
from repro.crypto.pairing import (
    final_exponentiation,
    miller_eval,
    miller_loop,
    multi_pairing,
    multi_pairing_precomputed,
    precompute_miller,
    tate_pairing,
    tate_pairing_precomputed,
)
from repro.par import pool as pool_mod
from repro.pbe.hve import HVE
from repro.pbe.schema import ENCODINGS, Interest, MetadataSchema

from ..crypto.reference import inverse
from ..pbe.reference import naive_query

SEED = 0x0EC4


@pytest.fixture(scope="module")
def group() -> PairingGroup:
    return PairingGroup("TOY")


@pytest.fixture(scope="module")
def rng() -> random.Random:
    return random.Random(SEED)


def reference_mul(point: Point, k: int) -> Point:
    """Plain double-and-add, independent of every production fast path."""
    if k < 0:
        return reference_mul(-point, -k)
    result = Point(None, None, point.params)
    addend = point
    while k:
        if k & 1:
            result = result + addend
        addend = addend + addend
        k >>= 1
    return result


# -- fixed-base comb tables ----------------------------------------------------


def _scalar_cases(group, rng) -> list[int]:
    r = group.order
    return [
        0,
        1,
        2,
        -1,
        -rng.randrange(2, r),
        r - 1,
        r,  # multiplies to infinity
        r + 1,
        2 * r + 3,  # above the order, still inside the table width
        *(rng.randrange(1, r) for _ in range(8)),
    ]


def test_fixed_base_table_matches_reference(group, rng):
    table = fixed_base_table(group.generator)
    for k in _scalar_cases(group, rng):
        expected = reference_mul(group.generator, k)
        assert (group.generator * k).to_bytes() == expected.to_bytes()
        if 0 <= k < (1 << table.max_bits):
            assert table.mul(k).to_bytes() == expected.to_bytes()


def test_fixed_base_on_non_generator_base(group, rng):
    base = group.generator * rng.randrange(2, group.order)
    table = fixed_base_table(base)
    for k in _scalar_cases(group, rng):
        expected = reference_mul(base, k)
        assert (base * k).to_bytes() == expected.to_bytes()
        if 0 <= k < (1 << table.max_bits):
            assert table.mul(k).to_bytes() == expected.to_bytes()


def test_scalar_beyond_table_width_falls_back(group, rng):
    table = fixed_base_table(group.generator)
    k = 1 << (table.max_bits + 8)  # wider than the comb table covers
    assert (group.generator * k).to_bytes() == reference_mul(
        group.generator, k
    ).to_bytes()


# -- Miller-loop precomputation ------------------------------------------------


def test_miller_eval_matches_miller_loop(group, rng):
    g = group.generator
    for _ in range(4):
        p = g * rng.randrange(1, group.order)
        q = g * rng.randrange(1, group.order)
        pre = precompute_miller(p)
        # an unreduced Miller value is defined up to F_q*: the ratio is real
        ratio = miller_eval(pre, q) * inverse(miller_loop(p, q))
        assert ratio.b == 0 and not ratio.is_zero()
        assert final_exponentiation(miller_eval(pre, q), group.params) == tate_pairing(
            p, q
        )


def test_tate_pairing_precomputed_bit_identical(group, rng):
    g = group.generator
    p = g * rng.randrange(1, group.order)
    q = g * rng.randrange(1, group.order)
    pre = precompute_miller(p)
    assert group.serialize_gt(tate_pairing_precomputed(pre, q)) == group.serialize_gt(
        tate_pairing(p, q)
    )


def test_multi_pairing_precomputed_bit_identical(group, rng):
    g = group.generator
    pairs = [
        (g * rng.randrange(1, group.order), g * rng.randrange(1, group.order))
        for _ in range(5)
    ]
    # include an infinity entry: both paths must apply the same skip rule
    pairs.append((g * group.order, g * rng.randrange(1, group.order)))
    naive = multi_pairing(pairs, group.params)
    entries = [
        (None if p.is_infinity else precompute_miller(p), q) for p, q in pairs
    ]
    precomputed = multi_pairing_precomputed(entries, group.params)
    assert group.serialize_gt(precomputed) == group.serialize_gt(naive)


# -- HVE precomputed query path ------------------------------------------------


@randomness.seeded(SEED ^ 1)
def test_hve_precompute_query_equivalent(group):
    hve = HVE(group)
    public, master = hve.setup(6)
    x = [1, 0, 1, 0, 1, 1]
    ct = hve.encrypt(public, x, b"guid-equivalence")
    interests = [
        ([1, 0, None, None, None, None], True),
        ([None, None, 1, 0, None, 1], True),
        ([0, 0, None, None, None, None], False),  # a miss
        ([None, 1, None, None, None, None], False),
        ([None, None, None, None, None, 1], True),  # all but one wildcard
        (x, True),  # full width
        ([1, 0, 1, 0, 1, 0], False),  # full width, near-miss on the last position
    ]
    for y, matches in interests:
        token = hve.gen_token(master, y)
        expected = naive_query(group, token, ct)
        assert (expected == b"guid-equivalence") is matches, y
        assert hve.query(token, ct) == expected, y  # cold: builds the token's lines
        assert hve.query(token, ct) == expected, y  # warm: the token's own lines


# -- delegated vs broadcast deployments ----------------------------------------


def _run_deployment(delegated: bool, encoding: str):
    schema = MetadataSchema(default_schema().attributes, encoding)
    system = P3SSystem(P3SConfig(schema=schema, delegated_matching=delegated))
    names_interests = [
        ("alice", Interest({"attr00": "v01"})),
        ("bobby", Interest({"attr00": "v02"})),
        ("carol", Interest({"attr01": "v01", "attr02": "v03"})),
    ]
    for name, interest in names_interests:
        subscriber = system.add_subscriber(name, attributes={"org:acme"})
        system.subscribe(subscriber, interest)
    system.run()
    publisher = system.add_publisher("pub")
    base = {f"attr{i:02d}": "v00" for i in range(10)}
    publisher.publish({**base, "attr00": "v01"}, b"payload-one", policy="org:acme")
    publisher.publish(
        {**base, "attr01": "v01", "attr02": "v03"}, b"payload-two", policy="org:acme"
    )
    publisher.publish({**base, "attr00": "v03"}, b"payload-none", policy="org:acme")
    system.run()
    return {
        name: sorted(
            (delivery.publication_id, delivery.guid, delivery.payload)
            for delivery in subscriber.stats.deliveries
        )
        for name, subscriber in system.subscribers.items()
    }


def test_delegated_matching_delivery_sets_identical():
    payloads = {}
    for encoding in ENCODINGS:
        for delegated in (False, True):
            # GUIDs are random per run; compare per-subscriber payload multisets
            # and that exactly the same subscribers received the same counts
            payloads[encoding, delegated] = {
                name: [payload for _, _, payload in rows]
                for name, rows in _run_deployment(delegated, encoding).items()
            }
    first, *rest = payloads.values()
    assert all(other == first for other in rest), payloads
    assert first["alice"] and first["carol"]
    assert not first["bobby"]


# -- the match pool forks past SPLIT_AT only -----------------------------------

BASE = {f"attr{i:02d}": "v00" for i in range(10)}


def _children() -> int:
    return len(multiprocessing.active_children())


def _delegated_run(match_workers: int, rounds, crash: bool = False):
    """A delegated deployment on ``default_schema()``: each round subscribes
    ``(subscriber, interest)`` pairs, then publishes its metadata.  Returns
    each subscriber's delivered payloads, the live child processes after
    each round (and after a DS crash, with ``crash``), and the DS's
    registrations and partitions at the last round."""
    system = P3SSystem(
        P3SConfig(schema=default_schema(), delegated_matching=True, match_workers=match_workers)
    )
    try:
        publisher = system.add_publisher("pub")
        children, held = [], None
        for number, (subscriptions, metadata) in enumerate(rounds):
            for name, interest in subscriptions:
                if name not in system.subscribers:
                    system.add_subscriber(name, attributes={"org:acme"})
                system.subscribe(system.subscribers[name], interest)
            system.run()
            for index, attributes in enumerate(metadata):
                payload = b"round-%d-%d" % (number, index)
                publisher.publish({**BASE, **attributes}, payload, policy="org:acme")
            system.run()
            children.append(_children())
            held = (list(system.ds.registered_tokens), len(system.ds.match_pool.partitions))
        if crash:
            system.ds.crash()
            children.append(_children())
    finally:
        system.close()
    delivered = {
        name: sorted(delivery.payload for delivery in subscriber.stats.deliveries)
        for name, subscriber in system.subscribers.items()
    }
    return delivered, children, held


def test_a_sim_churn_shaped_registry_forks_no_worker():
    """`sim-churn`'s DS: 16 subscribers, one-attribute interests, so 16
    registrations of 10 distinct tokens, under ``match_workers=2``."""
    subscriptions = [(f"s{i:02d}", Interest({f"attr{i % 10:02d}": "v01"})) for i in range(16)]
    metadata = [{"attr00": "v01"}, {"attr03": "v01", "attr07": "v01"}, {"attr05": "v02"}]
    before = _children()
    pooled, children, (registry, partitions) = _delegated_run(2, [(subscriptions, metadata)])
    assert len(registry) == 16 and len({token for _, token in registry}) == 10
    assert pool_mod.SPLIT_AT["TOY"] > 10
    assert children == [before] and partitions == 1
    serial, _, _ = _delegated_run(0, [(subscriptions, metadata)])
    assert pooled == serial
    assert pooled["s00"] == pooled["s10"] == [b"round-0-0"] and pooled["s03"] == [b"round-0-1"]


def test_crossing_split_at_forks_exactly_match_workers():
    """Real tokens up to the real ``SPLIT_AT``: one short of it forks
    nothing, the last one forks ``match_workers`` workers, a DS crash
    reaps them, and every subscriber receives what it does at
    ``match_workers=0``."""
    split_at = pool_mod.SPLIT_AT["TOY"]
    cells = [{f"attr{a:02d}": f"v{v:02d}"} for v in range(16) for a in range(10)]
    cells += [{**x, **y} for x, y in itertools.combinations(cells, 2) if x.keys() != y.keys()]
    interests = [Interest(cell) for cell in cells[:split_at]]
    subscriptions = [(f"s{i % 4}", interest) for i, interest in enumerate(interests)]
    rounds = [
        (subscriptions[:-1], [{"attr00": "v00"}, {"attr01": "v03"}]),
        (subscriptions[-1:], [{"attr02": "v05"}, dict(cells[split_at - 1])]),
    ]
    before = _children()
    pooled, children, (registry, partitions) = _delegated_run(2, rounds, crash=True)
    assert len({token for _, token in registry}) == split_at
    assert children == [before, before + 2, before] and partitions == 2
    serial, serial_children, _ = _delegated_run(0, rounds)
    assert serial_children == [before, before]
    assert pooled == serial and all(pooled.values())
