"""What each party opened, reported to a recorder only a harness installs.

A party reports what §6.1 says it sees through :func:`opened`, where it
opens it, and keeps none of it.  By ``what``: ``"frame"``, the DS's
``(kind, body size)``; ``"source"``, a request's transport source at the
RS or the PBE-TS; ``"request"``, the token issuer's (party ``"issuer"``)
``(certificate subject, time, Interest)``; ``"link"``, the anonymizer's
``(requester, destination)``; ``"token"``, the DS's ``(client, token
bytes)`` of a delegated-matching registration.  With no recorder
installed :func:`opened` costs one global load and one comparison, as
:mod:`repro.obs.hooks` does; it feeds no exporter, since a sighting can
carry a plaintext interest.  What each sighting reveals, and who may
learn it, is :mod:`repro.privacy.may_know`'s to say.
"""

from __future__ import annotations

__all__ = ["Recorder", "opened"]

_recorder: "Recorder | None" = None


def opened(party: str, what: str, value: object) -> None:
    """Report that ``party`` opened ``value``, a ``what``, to the installed recorder."""
    recorder = _recorder
    if recorder is None:
        return
    recorder.sightings.append((party, what, value))


class Recorder:
    """The ``(party, what, value)`` sightings, in order, taken while it is
    installed (``with Recorder() as recorder:`` around a run)."""

    def __init__(self) -> None:
        self.sightings: list[tuple[str, str, object]] = []

    def __enter__(self) -> "Recorder":
        global _recorder
        _recorder = self
        return self

    def __exit__(self, *exc_info) -> None:
        global _recorder
        if _recorder is self:
            _recorder = None

    def seen(self, what: str, *parties: str) -> list:
        """The value of every ``what`` sighting, only ``parties``' if any are named."""
        return [
            value
            for party, kind, value in self.sightings
            if kind == what and (not parties or party in parties)
        ]
