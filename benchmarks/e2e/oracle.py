"""Plaintext oracle: who must receive what, decided without any crypto.

A subscriber must receive a publication exactly when its interest
matches the publication's metadata *and* its attributes satisfy the
publication's policy (every workload policy is a conjunction).  The
oracle evaluates that on the generated plaintext inputs, then judges
every delivery the deployment reports: a payload nobody should have
received, a payload that differs from what was published, or a second
copy of one already delivered is a wrong delivery; an expected delivery
that never arrives is missing.
"""

from __future__ import annotations

from workloads import Publication, SubscriberSpec, payload_index

__all__ = ["expected_receivers", "Oracle"]


def expected_receivers(
    subscribers: list[SubscriberSpec], publication: Publication
) -> frozenset[str]:
    """Names of the subscribers that must receive ``publication``."""
    return frozenset(
        s.name
        for s in subscribers
        if all(publication.metadata.get(a) == v for a, v in s.interest.items())
        and set(publication.policy) <= s.attributes
    )


class Oracle:
    """Tracks expected deliveries and judges observed ones."""

    def __init__(self, subscribers: list[SubscriberSpec]):
        self.subscribers = subscribers
        self._published: dict[int, Publication] = {}
        # publication index -> names still owed a delivery
        self._outstanding: dict[int, set[str]] = {}
        # publication index -> {subscriber name: arrival perf_counter time}
        self.arrivals: dict[int, dict[str, float]] = {}
        self.expected = 0
        self.wrong: list[str] = []  # one human-readable line per wrong delivery

    def expect(self, publication: Publication) -> int:
        """Register a publication about to be sent; returns how many
        deliveries it must produce."""
        receivers = expected_receivers(self.subscribers, publication)
        self._published[publication.index] = publication
        self._outstanding[publication.index] = set(receivers)
        self.arrivals[publication.index] = {}
        self.expected += len(receivers)
        return len(receivers)

    def observe(self, subscriber: str, payload: bytes, at: float) -> int | None:
        """Judge one delivery; returns the publication index when it was
        an expected one, else None (and records why it was wrong)."""
        index = payload_index(payload)
        publication = self._published.get(index)
        if publication is None:
            self.wrong.append(f"{subscriber}: payload of no known publication")
            return None
        if payload != publication.payload:
            self.wrong.append(f"{subscriber}: publication {index} plaintext differs")
            return None
        owed = self._outstanding[index]
        if subscriber not in owed:
            kind = "duplicate" if subscriber in self.arrivals[index] else "spurious"
            self.wrong.append(f"{subscriber}: {kind} delivery of publication {index}")
            return None
        owed.remove(subscriber)
        self.arrivals[index][subscriber] = at
        return index

    def outstanding(self, index: int) -> int:
        return len(self._outstanding[index])

    def missing(self) -> list[tuple[int, str]]:
        return sorted(
            (index, name) for index, owed in self._outstanding.items() for name in owed
        )
