"""Signed-digit comb tables: fixed-base multiplication in G1, fixed-base
exponentiation in GT.

The hot bases of this codebase are raised to fresh scalars on every setup,
encrypt and token-gen call: the group generator ``g`` and the HVE / CP-ABE
public-key points in G1, and ``Y = ê(g,g)^{y₀}``, ``ê(g,g)^α`` and
``ê(g,g)`` itself in GT.  A comb table for base ``B`` stores, in row ``j``,
the multiples ``d · 32^j · B`` (in GT the powers ``B^(d·32^j)``) for the
digits ``d = 1…16``.  A scalar recoded into signed radix-32 digits
``d ∈ [−15, 16]`` (:func:`signed_digits`) then costs one lookup and one
group operation a digit and no doublings or squarings: at most 33 for a
160-bit scalar.  A negative digit selects the inverse of an entry, which is
free in both groups: ``−(x, y) = (x, −y)`` on the curve, and an ``F_q²``
element of norm 1 — every GT element — inverts by conjugation.

A key's G1 table is not built whole up front: it fills an entry the first
time a digit selects it (:mod:`repro.crypto.curve`).  A GT table adds a
row at a time.  The generator's G1 table alone is wider,
:data:`GENERATOR_WINDOW` bits a digit: built whole once a process, it
serves every ``g · k``.

A table lives with whoever owns its base (:class:`TableCache`): an HVE
public key carries those of its own 2·Σ|Σ_i| points (one pair a symbol of
each position: 4n for a binary key) — that many at most, freed with the
key — and every other base (``g``, CP-ABE and signing keys, the GT bases,
the servers' PKE keys: a dozen or so on any workload) is served by value
from one process-global cache, :data:`shared_tables`, LRU-bounded because
nothing else bounds it.

Tables are promoted automatically, on a base's first large (>32-bit) use
that its owner's rule admits.  The shared cache admits a base on its
third use, so one-shot values (hash-to-point candidates, ephemeral keys,
pairing results) never trigger a build.  A key admits its own bases on
their first use: none of them is one-shot, the key bounds how many there
are, and a base of a 16-symbol position, used by about one encryption in
sixteen, would otherwise spend its first two uses — dozens of
encryptions — on the table-less ladder.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["WINDOW", "GENERATOR_WINDOW", "signed_digits", "TableCache", "shared_tables"]

WINDOW = 5  # digit width in bits: a row holds the 2^(WINDOW−1) = 16 positive digits
ROW = 1 << (WINDOW - 1)
# The digit width of the generator's G1 table, by parameter set: the
# window with the fastest token mint of those whose build one HVE.setup
# repays (benchmarks/bench_generator_comb.py, BENCH_pr58.json).  The table
# is built whole once a process and serves every g · k; a set the sweep
# does not time uses WINDOW.
GENERATOR_WINDOW = {"TOY": 8, "PAPER": 8}
_PROMOTE_AFTER = 2  # large uses a shared base must make before a table is built
MAX_TABLES = 128
_MAX_COUNTS = 4096


def signed_digits(k: int, window: int = WINDOW) -> list[int]:
    """``k ≥ 0`` in signed radix ``2^window``, lowest digit first.

    Every digit lies in ``[1 − 2^(window−1), 2^(window−1)]`` and
    ``Σ d_j · 2^(window·j) = k``; a ``b``-bit ``k`` has at most
    ``b // window + 1`` digits (the last one only when a carry runs off
    the top)."""
    half, mask = 1 << (window - 1), (1 << window) - 1
    digits = []
    while k:
        digit = k & mask
        if digit > half:
            digit -= 1 << window
        digits.append(digit)
        k = (k - digit) >> window
    return digits


class TableCache:
    """Comb tables of a set of bases, keyed by value, and the use counts that
    earn them; each LRU-bounded (a key sizes both to its own bases: no eviction).
    A base earns its table on the large use after ``promote_after`` of them;
    one that waited for it has proved hot and gets it whole (``fill``), a
    key's own (``promote_after=0``) fills in as scalars ask.

    A base is a curve point or an ``F_q²`` element of norm 1, and builds its
    own table (``base.comb_table()``); one cache may hold both kinds."""

    def __init__(self, max_tables: int, max_counts: int, promote_after: int = _PROMOTE_AFTER):
        self.max_tables = max_tables
        self.max_counts = max_counts
        self.promote_after = promote_after
        self.tables: OrderedDict = OrderedDict()
        self.counts: OrderedDict = OrderedDict()

    def clear(self) -> None:
        self.tables.clear()
        self.counts.clear()

    def table(self, base):
        """Get-or-build the comb table for ``base``."""
        table = self.tables.get(base)
        if table is None:
            table = base.comb_table()
            if self.promote_after:  # a base that earned its table by use is hot
                table.fill()
            self.tables[base] = table
            self.counts.pop(base, None)
            while len(self.tables) > self.max_tables:
                self.tables.popitem(last=False)
        else:
            self.tables.move_to_end(base)
        return table

    def lookup(self, base, bits: int):
        """Count one use of ``base`` with a ``bits``-bit scalar and return the
        comb table that serves it: a cached one wide enough, or the one this
        use promotes the base to (``None`` otherwise)."""
        table = self.tables.get(base)
        if table is not None:
            self.tables.move_to_end(base)
        elif bits > 32:
            count = self.counts.get(base, 0) + 1
            if count > self.promote_after:
                table = self.table(base)
            else:
                self.counts[base] = count
                self.counts.move_to_end(base)
                while len(self.counts) > self.max_counts:
                    self.counts.popitem(last=False)
        if table is None or bits > table.max_bits:
            return None
        return table


shared_tables = TableCache(MAX_TABLES, _MAX_COUNTS)  # every base no key owns
