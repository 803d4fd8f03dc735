"""Unit and property tests for curve point arithmetic and hash-to-point."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import curve, precompute
from repro.crypto.comb import GENERATOR_WINDOW, WINDOW, TableCache, shared_tables, signed_digits
from repro.crypto.curve import FixedBaseTable, Point, fixed_base_table, hash_to_point, mul_many
from repro.crypto.jacobian import add_many
from repro.crypto.params import PAPER, TOY
from repro.errors import NotOnCurveError, ParameterError, SerializationError

from .reference import eager_comb_rows, lifted_point, plain_mul, small_order_point

G = Point.generator(TOY)
R = TOY.r
CHAIN_DIGITS = (1, 2, 4, 8, 16)  # a row's entries on the doubling chain, there from construction

scalars = st.integers(min_value=0, max_value=R - 1)


def unpacked(table):
    """``table.rows`` with every entry unpacked from ``x << |q| | y`` to the
    raw affine pair ``(x, y)``; ``None`` and ``curve._MISSING`` as they are."""
    shift = table.base.params.q.bit_length()
    return [
        [
            entry if entry is None or entry is curve._MISSING
            else (entry >> shift, entry & ((1 << shift) - 1))
            for entry in row
        ]
        for row in table.rows
    ]


class TestGroupLaw:
    def test_generator_on_curve(self):
        assert G._on_curve()

    def test_generator_order(self):
        assert (G * R).is_infinity
        assert not (G * (R - 1)).is_infinity

    def test_identity(self):
        inf = Point(None, None, TOY)
        assert G + inf == G
        assert inf + G == G
        assert (inf + inf).is_infinity

    def test_inverse(self):
        assert (G + (-G)).is_infinity

    def test_doubling_matches_addition(self):
        assert G.double() == G * 2

    def test_scalar_zero(self):
        assert (G * 0).is_infinity

    def test_scalar_negative(self):
        assert G * (-3) == -(G * 3)

    def test_scalar_not_reduced_mod_r(self):
        # Cofactor clearing relies on scalars larger than r being honoured.
        assert G * (R + 1) == G

    def test_off_curve_point_rejected(self):
        with pytest.raises(NotOnCurveError):
            Point(1, 1, TOY)

    def test_infinity_neg(self):
        inf = Point(None, None, TOY)
        assert (-inf).is_infinity


class TestGroupProperties:
    @settings(max_examples=30)
    @given(scalars, scalars)
    def test_scalar_distributes(self, a, b):
        assert G * a + G * b == G * ((a + b) % R)

    @settings(max_examples=20)
    @given(scalars, scalars)
    def test_addition_commutative(self, a, b):
        assert G * a + G * b == G * b + G * a

    @settings(max_examples=20)
    @given(scalars)
    def test_serialize_roundtrip(self, a):
        point = G * a
        assert Point.from_bytes(point.to_bytes(), TOY) == point


class TestSerialization:
    def test_infinity_roundtrip(self):
        inf = Point(None, None, TOY)
        data = inf.to_bytes()
        assert data[0] == 0x00
        assert Point.from_bytes(data, TOY).is_infinity

    def test_fixed_width(self):
        assert len(G.to_bytes()) == 1 + 2 * TOY.q_bytes

    def test_bad_length_rejected(self):
        with pytest.raises(SerializationError):
            Point.from_bytes(b"\x04" + b"\x00" * 3, TOY)

    def test_bad_tag_rejected(self):
        data = bytearray(G.to_bytes())
        data[0] = 0x07
        with pytest.raises(SerializationError):
            Point.from_bytes(bytes(data), TOY)

    def test_tampered_point_rejected(self):
        data = bytearray(G.to_bytes())
        data[-1] ^= 1
        with pytest.raises(NotOnCurveError):
            Point.from_bytes(bytes(data), TOY)


class TestHashToPoint:
    def test_deterministic(self):
        assert hash_to_point(b"attr:alice", TOY) == hash_to_point(b"attr:alice", TOY)

    def test_distinct_labels_distinct_points(self):
        assert hash_to_point(b"a", TOY) != hash_to_point(b"b", TOY)

    def test_in_prime_order_subgroup(self):
        point = hash_to_point(b"subgroup-check", TOY)
        assert (point * R).is_infinity
        assert not point.is_infinity

    def test_many_labels_all_valid(self):
        for i in range(20):
            point = hash_to_point(f"label-{i}".encode(), TOY)
            assert point._on_curve()
            assert (point * R).is_infinity


# -- every ladder against a reference that uses only Point.__add__ -----------------


LADDER_SCALARS = [0, 1, 2, 15, 16, 2**32 - 1, 2**32, 2**32 + 1, R - 1, R, R + 1, TOY.h, -7, -R - 3]
LADDER_POINTS = {
    "generator": G,
    "hashed": hash_to_point(b"ladder", TOY),
    "two_torsion": Point(0, 0, TOY),
    "outside_subgroup": lifted_point(TOY, 5),
    "order_4": small_order_point(4),
    "infinity": Point(None, None, TOY),
}


class TestLaddersAgainstAffineReference:
    @pytest.mark.parametrize("name", LADDER_POINTS)
    def test_mul_every_branch(self, name):
        from repro.crypto import precompute

        from repro.obs import Observability

        point = LADDER_POINTS[name]
        obs = Observability()
        try:
            with obs.installed():
                for k in LADDER_SCALARS:
                    # no table and a zero promotion count: the windowed ladder
                    precompute.clear_caches()
                    assert point * k == plain_mul(point, k), (name, k, "windowed")
                assert obs.metrics.counter_total("op.g1_exp.fixed_base") == 0
                if not point.is_infinity:
                    fixed_base_table(point)
                for k in LADDER_SCALARS:
                    assert point * k == plain_mul(point, k), (name, k, "comb")
                if not point.is_infinity:
                    assert obs.metrics.counter_total("op.g1_exp.fixed_base") > 0
        finally:
            precompute.clear_caches()

    @pytest.mark.parametrize("name", LADDER_POINTS)
    @pytest.mark.parametrize("window", [1, 2, 4, 5])
    def test_windowed_every_window(self, name, window):
        point = LADDER_POINTS[name]
        for k in LADDER_SCALARS:
            assert point.scalar_mul_windowed(k, window) == plain_mul(point, k)

    def test_windowed_mul_matches_plain_ladder(self):
        for scalar in (1, 2, 255, (1 << 64) + 12345, R - 1):
            assert G.scalar_mul_windowed(scalar) == plain_mul(G, scalar)

    def test_doubling_the_two_torsion_point_is_infinity(self):
        torsion = Point(0, 0, TOY)
        assert torsion.double().is_infinity
        assert (torsion * 2).is_infinity
        assert torsion * 3 == torsion

    @pytest.mark.parametrize("name", ["generator", "two_torsion", "order_4", "outside_subgroup"])
    def test_comb_table_full_range(self, name):
        """Every scalar a small table accepts — negated entries, rows and
        running sums at infinity included (a 2-torsion base has ``[B, O, B,
        O, …]`` rows and is its own negation), and the carries: the third
        row is reached only by one running off the top of the second.
        Afterwards every entry a scalar can select is filled, with the
        whole-table build's value, and no other entry is."""
        base = LADDER_POINTS[name]
        table = FixedBaseTable(base, max_bits=10)
        assert len(table.rows) == 3 and all(len(row) == 16 for row in table.rows)
        for k in range(1 << 10):
            assert table.mul(k) == plain_mul(base, k)
        assert signed_digits((1 << 10) - 1) == [-1, 0, 1]
        eager = eager_comb_rows(base, 10)
        for j, row in enumerate(unpacked(table)):
            for d, entry in enumerate(row, start=1):
                assert eager[j][d - 1] == _raw(plain_mul(base, d * 32**j))
                if j < 2 or d in CHAIN_DIGITS:
                    assert entry == eager[j][d - 1], (j, d)
                else:  # the top row's digit is a carry: 1 or nothing
                    assert entry is curve._MISSING, (j, d)

    def test_comb_table_full_size(self):
        table = FixedBaseTable(G, max_bits=R.bit_length() + WINDOW)
        top = (1 << table.max_bits) - 1
        for k in (0, 1, R - 1, R, R + 1, 2 * R, top, top - R, 0xF0F0F0F0F0F0F0F0F):
            assert table.mul(k) == plain_mul(G, k)

    def test_paper_cofactor_multiplication(self):
        """What ``hash_to_point`` does at PAPER: a raw lifted point times ``h``."""
        from repro.crypto.params import PAPER

        raw = lifted_point(PAPER, 0xC0FFEE)
        cleared = raw * PAPER.h
        assert cleared == plain_mul(raw, PAPER.h)
        assert (cleared * PAPER.r).is_infinity and not cleared.is_infinity


# -- the lock-step affine walk: a batch against the same one-at-a-time reference ---


def _raw(point):
    return None if point.is_infinity else (point.x, point.y)


class TestAddMany:
    def test_every_branch_in_one_list(self):
        """Chord, tangent, opposite, 2-torsion and infinity on either side,
        mixed in one call: each sum is ``Point.__add__``'s."""
        inf = Point(None, None, TOY)
        torsion = Point(0, 0, TOY)
        p, q = G * 5, hash_to_point(b"add-many", TOY)
        small = [small_order_point(order) for order in (3, 4, 5)]
        cases = [(p, q), (q, p), (p, p), (p, -p), (inf, p), (p, inf), (inf, inf)]
        cases += [(torsion, torsion), (torsion, p), (p, torsion)]
        for point in small:  # the whole orbit: d·P + P passes through −P + P and O + P
            cases += [(plain_mul(point, d), point) for d in range(6)]
            cases += [(point, point), (point, -point), (point, q)]
        lhs = [_raw(a) for a, _ in cases]
        rhs = [_raw(b) for _, b in cases]
        assert add_many(lhs, rhs, TOY.q) == [_raw(a + b) for a, b in cases]

    def test_empty_and_single(self):
        assert add_many([], [], TOY.q) == []
        assert add_many([_raw(G)], [_raw(G)], TOY.q) == [_raw(G + G)]

    @settings(max_examples=20)
    @given(st.lists(st.tuples(scalars, scalars), min_size=1, max_size=6))
    def test_matches_point_add(self, pairs):
        points = [(G * a, G * b) for a, b in pairs]  # a == b, a == −b and 0 all occur
        sums = add_many([_raw(a) for a, _ in points], [_raw(b) for _, b in points], TOY.q)
        assert sums == [_raw(a + b) for a, b in points]


@pytest.mark.usefixtures("clean_tables")
class TestMulMany:
    WIDE = 1 << (R.bit_length() + 12)  # wider than any comb table

    def test_battery_table_backed_and_table_less(self):
        """The ladder battery's scalars × bases in ONE batch, bases repeated:
        first with no table anywhere (every entry a ladder), then with a
        table under every finite base (the lock-step walk)."""
        scalars_ = LADDER_SCALARS + [self.WIDE + 5]
        pairs = [(point, k) for point in LADDER_POINTS.values() for k in scalars_]
        expected = [plain_mul(point, k) for point, k in pairs]
        small = [(point, k) for point, k in pairs if abs(k) < 2**32]  # never promotes
        assert mul_many(small) == [plain_mul(point, k) for point, k in small]
        for point in LADDER_POINTS.values():
            if not point.is_infinity:
                fixed_base_table(point)
        assert mul_many(pairs) == expected

    def test_mixed_backing(self):
        hashed = LADDER_POINTS["hashed"]
        fixed_base_table(G)
        pairs = [(G, 7), (hashed, R - 2), (G, R - 1), (G, 0), (hashed, -3)]
        pairs += [(G, R - 1 - i) for i in range(12)]  # 14 table-backed, 2 ladders
        assert mul_many(pairs) == [plain_mul(point, k) for point, k in pairs]
        assert mul_many(pairs[2:3]) == [plain_mul(G, R - 1)]
        assert mul_many([]) == []

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(sorted(LADDER_POINTS)), scalars), max_size=12))
    def test_equals_plain_mul(self, named):
        fixed_base_table(G)
        fixed_base_table(LADDER_POINTS["order_4"])
        pairs = [(LADDER_POINTS[name], k) for name, k in named]
        assert mul_many(pairs) == [plain_mul(point, k) for point, k in pairs]

    def test_counts_and_promotes_like_point_mul(self):
        """Per entry one ``g1_exp``; a base's third large use builds its
        table even when that use arrives inside a batch."""
        from repro.obs import Observability

        base = hash_to_point(b"promoted-in-a-batch", TOY)
        obs = Observability()
        with obs.installed():
            base * (R - 1)
            base * (R - 2)
            total = lambda name: obs.metrics.counter_total("op.g1_exp" + name)  # noqa: E731
            assert (total(""), total(".fb_build"), total(".fixed_base")) == (2, 0, 0)
            batch = [(base, R - 3), (base, 9), (base, 0), (base, R - 4)]
            assert mul_many(batch) == [plain_mul(base, k) for _, k in batch]
            # 0 is not a multiplication; the other three are, all on the new table
            assert (total(""), total(".fb_build"), total(".fixed_base")) == (5, 1, 3)

    def test_bases_on_different_curves_rejected(self):
        with pytest.raises(ParameterError):
            mul_many([(G, 3), (Point.generator(PAPER), 3)])


@pytest.mark.usefixtures("clean_tables")
class TestCombTableRange:
    def test_fixed_base_table_has_one_width(self):
        """It took a ``max_bits`` that a cache hit silently ignored.  One
        width, ``|r|`` plus a digit, and one row shape a parameter set: the
        generator's rows hold the signed entries of its set's
        ``GENERATOR_WINDOW`` — at ``PAPER`` fewer rows than window 5's 34 —
        and every other base's the 16 of window 5."""
        import inspect

        assert list(inspect.signature(fixed_base_table).parameters) == ["point"]
        for params in (TOY, PAPER):
            table = fixed_base_table(Point.generator(params))
            window = GENERATOR_WINDOW.get(params.name, WINDOW)
            assert table.window == window
            assert table.max_bits == params.r.bit_length() + WINDOW
            assert len(table.rows) == table.max_bits // window + 1
            assert all(len(row) == 1 << (window - 1) for row in table.rows)
        assert len(table.rows) < table.max_bits // WINDOW + 1 == 34
        other = fixed_base_table(G * 3)
        assert other.window == WINDOW and all(len(row) == 16 for row in other.rows)
        assert fixed_base_table(G) is fixed_base_table(G)

    @pytest.mark.parametrize("k", [-1, 1 << 9, (1 << 12) + 1, 1 << 200])
    def test_out_of_range_scalar_rejected_before_any_lookup(self, k):
        table = FixedBaseTable(G, max_bits=9)
        with pytest.raises(ParameterError):
            table.mul(k)
        with pytest.raises(ParameterError):
            table._digits(k)  # the digit selection both walks share
        assert table.mul((1 << 9) - 1) == plain_mul(G, (1 << 9) - 1)


# -- a comb table fills in as scalars ask for it -------------------------------------

SMALL_ORDER = ("two_torsion", "order_4", "outside_subgroup")


def _assert_missing_or_final(tables, eager):
    for table, rows in zip(tables, eager):
        for row, final in zip(unpacked(table), rows):
            for entry, value in zip(row, final):
                assert entry is curve._MISSING or entry == value


@pytest.mark.usefixtures("clean_tables")
class TestLazyCombTable:
    def test_construction_holds_the_doubling_chain_and_a_mul_fills_what_it_selects(self):
        table = FixedBaseTable(G, R.bit_length() + WINDOW)  # a key's width: 16 entries a row
        eager = eager_comb_rows(G, table.max_bits)
        k = R - 12345
        selected = {(j, abs(d)) for j, d in enumerate(signed_digits(k)) if d}
        selected |= {(j, 12) for j, d in selected if d in (11, 13)}  # their sums' first term
        for fills in (set(), selected):
            for j, row in enumerate(unpacked(table)):
                for d, entry in enumerate(row, start=1):
                    if d in CHAIN_DIGITS or (j, d) in fills:
                        assert entry == eager[j][d - 1], (j, d)
                    else:
                        assert entry is curve._MISSING, (j, d)
            assert table.mul(k) == plain_mul(G, k)

    def test_a_shared_base_gets_its_table_whole(self):
        """Warmed explicitly or promoted by its third large use: it has proved hot."""
        warmed, used = G * 7, G * 11
        fixed_base_table(warmed)
        for _ in range(3):
            assert used * (R - 1) == plain_mul(used, R - 1)
        for base in (warmed, used):
            table = shared_tables.tables[base]
            assert unpacked(table) == eager_comb_rows(base, table.max_bits, table.window)

    def test_whole_table_equals_the_eager_build(self):
        for base in [G] + [LADDER_POINTS[name] for name in SMALL_ORDER]:
            table = base.comb_table()
            table.fill()
            assert unpacked(table) == eager_comb_rows(base, table.max_bits, table.window)

    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=R - 1), min_size=2, max_size=2),
        st.lists(st.sampled_from(("fresh", "partly", "full")), min_size=5, max_size=5),
        st.lists(
            st.one_of(
                st.tuples(st.just("mul"), st.integers(0, 4), scalars),
                st.tuples(
                    st.just("mul_many"),
                    st.lists(st.tuples(st.integers(0, 4), scalars), min_size=1, max_size=4),
                ),
            ),
            max_size=4,
        ),
        st.lists(scalars, min_size=5, max_size=5),
    )
    def test_any_interleaving_of_mul_and_mul_many(self, logs, states, ops, partly):
        """Subgroup and small-order bases, each table fresh, partly filled
        or whole: every result is the reference's, no slot is ever seen —
        between any two lock-step rounds either — holding anything but
        "missing" or its final value, and the whole table is the eager one."""
        from unittest import mock

        bases = [G * log for log in logs] + [LADDER_POINTS[name] for name in SMALL_ORDER]
        tables = [base.comb_table() for base in bases]
        eager = [eager_comb_rows(base, t.max_bits, t.window) for base, t in zip(bases, tables)]
        owner = TableCache(len(bases), len(bases), promote_after=0)
        for base, table, state, k in zip(bases, tables, states, partly):
            owner.tables[base] = table
            if state == "partly":
                table.mul(k)
            elif state == "full":
                table.fill()
        real = curve.add_many

        def observed(lhs, rhs, q):
            _assert_missing_or_final(tables, eager)
            return real(lhs, rhs, q)

        with mock.patch.object(curve, "add_many", observed):
            for op in ops:
                if op[0] == "mul":
                    _, i, k = op
                    got = [tables[i].mul(k)]
                    pairs = [(bases[i], k)]
                else:
                    pairs = [(bases[i], k) for i, k in op[1]]
                    got = mul_many(pairs, owner)
                assert got == [base.scalar_mul_windowed(k) for base, k in pairs]
                assert got == [plain_mul(base, k) for base, k in pairs]
                _assert_missing_or_final(tables, eager)
        for table, rows in zip(tables, eager):
            table.fill()
            assert unpacked(table) == rows


# -- the generator's table is as wide as its parameter set's GENERATOR_WINDOW --------


class TestGeneratorWindow:
    def test_split_of_a_16_entry_row(self):
        """The lazy fill's split: each entry off the doubling chain is a
        chain entry, or one filled a round before, plus a signed chain entry."""
        assert curve._split(16) == {
            3: (2, 1), 5: (4, 1), 6: (4, 2), 7: (8, -1), 9: (8, 1), 10: (8, 2),
            11: (12, -1), 12: (8, 4), 13: (12, 1), 14: (16, -2), 15: (16, -1),
        }

    @pytest.mark.parametrize("row", [2, 4, 8, 16, 32, 64, 128, 256])
    def test_every_split_sums_to_its_digit_in_few_rounds(self, row):
        split = curve._split(row)
        on_chain = {1 << e for e in range(row.bit_length())}
        assert set(split) == set(range(1, row + 1)) - on_chain
        rounds = dict.fromkeys(on_chain, 0)
        for d in sorted(split, key=lambda d: -(d & -d)):  # a is the coarser neighbour
            a, b = split[d]
            assert a + b == d and abs(b) in on_chain and 1 <= a <= row
            rounds[d] = rounds[a] + 1
        assert max(rounds.values()) <= max(1, row.bit_length() // 2)

    @pytest.mark.parametrize("window", [2, 6, 8])
    @pytest.mark.parametrize("name", ["generator", "two_torsion", "outside_subgroup"])
    def test_whole_wide_table_equals_the_eager_build(self, name, window):
        base = LADDER_POINTS[name]
        table = FixedBaseTable(base, R.bit_length() + WINDOW, window)
        assert len(table.rows) == table.max_bits // window + 1
        table.fill()
        assert unpacked(table) == eager_comb_rows(base, table.max_bits, window)

    def test_g_times_k_is_one_point_at_every_window(self):
        """Random scalars and the edges: 0, 1, ``r − 1`` and ``2^(w·j) ± 1``
        for every row ``j`` — a digit carried into the row above or not —
        on whole tables and on lazily filled ones alike."""
        import random

        bits = R.bit_length() + WINDOW
        draw = random.Random(58)
        shared = [0, 1, 2, R - 1, R, (1 << bits) - 1] + [draw.randrange(R) for _ in range(24)]
        for window in range(5, 10):
            whole, lazy = FixedBaseTable(G, bits, window), FixedBaseTable(G, bits, window)
            whole.fill()
            edges = [(1 << window * j) + sign for j in range(1, len(whole.rows)) for sign in (-1, 1)]
            ks = [k for k in shared + edges if k.bit_length() <= bits]
            expected = [plain_mul(G, k) for k in ks]
            assert [whole.mul(k) for k in ks] == expected, window
            assert [lazy.mul(k) for k in ks] == expected, window
            owner = TableCache(1, 1, promote_after=0)
            owner.tables[G] = FixedBaseTable(G, bits, window)
            assert mul_many([(G, k) for k in ks], owner) == expected, window

    @pytest.mark.usefixtures("clean_tables")
    def test_a_wide_build_counts_one_fb_build(self, monkeypatch):
        """The generator takes its set's window, on the warm-up path and
        when promoted by use after the caches were cleared; every other base
        keeps window 5."""
        from repro.obs import Observability

        monkeypatch.setitem(GENERATOR_WINDOW, "TOY", 7)
        obs = Observability()
        with obs.installed():
            table = fixed_base_table(G)
            assert obs.metrics.counter_total("op.g1_exp.fb_build") == 1
            assert table.window == 7 and len(table.rows[0]) == 64
            assert unpacked(table) == eager_comb_rows(G, table.max_bits, 7)
            assert G * (R - 1) == plain_mul(G, R - 1)
            precompute.clear_caches()
            for _ in range(3):
                G * (R - 2)
            assert shared_tables.tables[G].window == 7
            assert fixed_base_table(G * 3).window == WINDOW
            assert obs.metrics.counter_total("op.g1_exp.fb_build") == 3
