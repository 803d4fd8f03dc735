"""The non-private baseline: a standard centralized pub-sub broker.

Paper §6.2: "We used a standard centralized pub-sub system as baseline,
where publishers submit their payload and metadata (such as a topic) to a
central broker, subscribers register subscriptions with the broker, and
the broker sends the payload whose metadata matches with a subscription
to the subscriber."

The broker sees everything (that is the point of the comparison):
plaintext metadata, plaintext subscriber interests, and who receives
what.  Links still run over the TLS-like channel layer ("the baseline
system may use standard cryptography (e.g., SSL) ... insignificant to
impact the processing and transmission times").

Matching cost follows the paper's model: each publication is tested
against *every* registered subscription at
:attr:`~repro.core.config.ComputeTimings.baseline_match` (~0.05 ms)
apiece.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import ComputeTimings
from ..net.channel import SecureChannelLayer
from ..net.network import Host
from ..obs import hooks as obs
from ..pbe.schema import Interest

__all__ = ["BaselineBroker", "BaselinePublication"]

MSG_SUBSCRIBE = "base.subscribe"
MSG_PUBLISH = "base.publish"
MSG_DELIVER = "base.deliver"


@dataclass
class BaselinePublication:
    """A publish frame: plaintext metadata + payload, visible to the broker."""

    publication_id: int
    metadata: dict[str, str]
    payload: bytes

    @property
    def wire_size(self) -> int:
        metadata_size = sum(len(k) + len(v) + 2 for k, v in self.metadata.items())
        return metadata_size + len(self.payload) + 16


@dataclass
class _Subscription:
    subscriber: str
    interest: Interest


class BaselineBroker:
    """Central broker process: match in the clear, deliver to matchers."""

    def __init__(self, host: Host, timings: ComputeTimings):
        self.host = host
        self.timings = timings
        self.channel = SecureChannelLayer(host)
        self.sim = host.network.sim
        self.subscriptions: list[_Subscription] = []
        self.published_count = 0
        self.delivered_count = 0
        self._started = False

    @property
    def name(self) -> str:
        return self.host.name

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.sim.process(self._serve())

    def _serve(self):
        while True:
            src, message = yield self.channel.receive()
            if message.msg_type == MSG_SUBSCRIBE:
                self.subscriptions.append(_Subscription(src, message.payload))
            elif message.msg_type == MSG_PUBLISH:
                self.published_count += 1
                yield from self._match_and_deliver(message)

    def _match_and_deliver(self, message):
        publication: BaselinePublication = message.payload
        span = obs.start_span(
            "baseline.match",
            component=self.name,
            parent=obs.extract(message.headers),
            subscriptions=len(self.subscriptions),
        )
        # The broker tests the publication against ALL registered
        # subscriptions (t2 = 0.05ms × N_s in the latency model).
        yield self.sim.timeout(self.timings.baseline_match * max(1, len(self.subscriptions)))
        matched = 0
        for subscription in self.subscriptions:
            if subscription.interest.matches(publication.metadata):
                matched += 1
                self.delivered_count += 1
                self.channel.send(
                    subscription.subscriber,
                    MSG_DELIVER,
                    publication,
                    publication.wire_size,
                    headers=obs.inject({}, span),
                )
        obs.end_span(span, matched=matched)
