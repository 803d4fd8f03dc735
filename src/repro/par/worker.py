"""One token partition of a :class:`repro.par.MatchPool`: distinct tokens
by their bytes, each decoded once and kept with the Miller lines it owns
(:attr:`repro.pbe.hve.HVEToken.lines`).  The pool reaches an in-process
partition and a worker process's (:func:`serve`) through the same
``send``/``recv``, so serial and parallel results agree by construction.
"""

from __future__ import annotations

from ..crypto.group import PairingGroup
from ..crypto.params import TypeAParams
from ..errors import ParameterError
from ..pbe.hve import HVE, HVEToken
from ..pbe.serialize import deserialize_hve_ciphertext, deserialize_hve_token

__all__ = ["Partition", "serve"]


class Partition:
    def __init__(self, params: TypeAParams):
        self.group = PairingGroup(params)
        self.hve = HVE(self.group)
        self.tokens: dict[bytes, HVEToken] = {}

    def apply(self, added: list, dropped: list, ciphertext_bytes: bytes) -> dict[bytes, bytes]:
        """Take ``added``, let ``dropped`` go, and match every held token:
        ``{token bytes: payload}`` of the matches.  Whatever raises does so
        before the holdings change, so the pool's record of them holds."""
        fresh = {data: deserialize_hve_token(self.group, data) for data in added}
        held = [token for data, token in self.tokens.items() if data not in dropped]
        lengths = {token.n for token in (*held, *fresh.values())}
        if len(lengths) > 1:
            raise ParameterError("token vector lengths differ")
        # the tokens' one length is the only n a ciphertext may have; with
        # no token held there is nothing to match, so nothing is decoded
        ciphertext = (
            deserialize_hve_ciphertext(self.group, ciphertext_bytes, *lengths) if lengths else None
        )
        for data in dropped:
            del self.tokens[data]
        self.tokens.update(fresh)
        matched = {}
        for data, token in self.tokens.items():
            payload = self.hve.query(token, ciphertext)
            if payload is not None:
                matched[data] = payload
        return matched

    def answer(self, request: tuple):
        """:meth:`apply`'s result, or the exception it raised (handed back
        over the pipe, and raised by the pool)."""
        try:
            return self.apply(*request)
        except Exception as exc:
            return exc

    # the in-process partition is reached as a worker's pipe is
    def send(self, request: tuple) -> None:
        self._reply = self.answer(request)

    def recv(self):
        return self._reply

    def alive(self) -> bool:
        return True

    def close(self) -> None:
        self.tokens.clear()


def serve(connection, params: TypeAParams) -> None:
    """A worker process: answer requests until the pool hangs up."""
    partition = Partition(params)
    while True:
        try:
            request = connection.recv()
        except EOFError:
            return
        connection.send(partition.answer(request))
