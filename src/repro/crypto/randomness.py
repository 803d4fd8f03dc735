"""Where every secret comes from: each scalar, GUID, key, nonce and pseudonym
is drawn here, by kind, from the OS CSPRNG unless a test or bench entered
:func:`seeded` (a stream per kind, so a seeded run replays byte for byte).
No module under ``src/`` enters it: a seeded deployment is a break, not a bug.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

__all__ = ["KINDS", "draw_below", "draw_bytes", "seeded"]

KINDS = ("scalar", "guid", "key", "nonce", "pseudonym")
_sources = dict.fromkeys(KINDS, random.SystemRandom())


def draw_below(kind: str, bound: int) -> int:
    return _sources[kind].randrange(bound)


def draw_bytes(kind: str, size: int) -> bytes:
    return _sources[kind].randbytes(size)


@contextmanager
def seeded(seed: int, **stand_ins):
    """Draw each kind from ``stand_ins[kind]`` (``randrange``/``randbytes``)
    or else ``random.Random(f"{seed}/{kind}")`` for the block."""
    if not stand_ins.keys() <= set(KINDS):  # as for any unexpected keyword
        raise TypeError(f"seeded() takes the kinds {KINDS}, not {sorted(stand_ins)}")
    saved = dict(_sources)
    _sources.update({kind: random.Random(f"{seed}/{kind}") for kind in KINDS}, **stand_ins)
    try:
        yield
    finally:
        _sources.update(saved)
