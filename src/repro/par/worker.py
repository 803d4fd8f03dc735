"""Worker-side evaluation for :class:`repro.par.MatchPool`.

Every function here is module-level so it pickles by reference into
:mod:`multiprocessing` workers.  A worker holds one process-global
:class:`_WorkerState` — the pairing group, an :class:`~repro.pbe.hve.HVE`
instance (whose per-token Miller-precomputation cache persists across
chunks, so a subscription token matched against a stream of publications
pays its line-function setup once per worker), and a digest-keyed
deserialization cache for token bytes.

The serial fallback in :mod:`repro.par.pool` drives the *same* state
class in-process, so parallel and serial paths share one code path for
the actual crypto — result equivalence is structural, not accidental.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

from ..crypto.group import PairingGroup
from ..crypto.params import TypeAParams
from ..pbe.hve import HVE, HVEToken
from ..pbe.serialize import deserialize_hve_ciphertext, deserialize_hve_token

__all__ = ["params_to_wire", "init_worker", "match_chunk", "WorkerState"]

_TOKEN_CACHE_SIZE = 512


def params_to_wire(params: TypeAParams) -> tuple:
    """A picklable description of a parameter set (survives spawn starts,
    where workers cannot inherit live objects)."""
    return (params.name, params.r, params.h, params.q, params.gx, params.gy)


def _params_from_wire(wire: tuple) -> TypeAParams:
    name, r, h, q, gx, gy = wire
    return TypeAParams(name=name, r=r, h=h, q=q, gx=gx, gy=gy)


class WorkerState:
    """Per-process crypto state: group, HVE, token-deserialization cache."""

    def __init__(self, params_wire: tuple):
        self.group = PairingGroup(_params_from_wire(params_wire))
        self.hve = HVE(self.group)
        self._tokens: OrderedDict[bytes, HVEToken] = OrderedDict()

    def token(self, token_bytes: bytes) -> HVEToken:
        digest = hashlib.sha256(token_bytes).digest()
        cached = self._tokens.get(digest)
        if cached is not None:
            self._tokens.move_to_end(digest)
            return cached
        token = deserialize_hve_token(self.group, token_bytes)
        self._tokens[digest] = token
        while len(self._tokens) > _TOKEN_CACHE_SIZE:
            self._tokens.popitem(last=False)
        return token

    def match_chunk(
        self, ciphertext_bytes: bytes, indexed_tokens: list[tuple[int, bytes]]
    ) -> list[tuple[int, bytes | None]]:
        """Evaluate one chunk; returns the indexed results."""
        ciphertext = deserialize_hve_ciphertext(self.group, ciphertext_bytes)
        return [
            (index, self.hve.query(self.token(token_bytes), ciphertext))
            for index, token_bytes in indexed_tokens
        ]


_state: WorkerState | None = None


def init_worker(params_wire: tuple) -> None:
    """Pool initializer: build the process-global :class:`WorkerState`."""
    global _state
    _state = WorkerState(params_wire)


def match_chunk(job: tuple[bytes, list[tuple[int, bytes]]]):
    """Pool task: ``(ciphertext_bytes, [(index, token_bytes), ...])``."""
    assert _state is not None, "worker used before init_worker ran"
    ciphertext_bytes, indexed_tokens = job
    return _state.match_chunk(ciphertext_bytes, indexed_tokens)
