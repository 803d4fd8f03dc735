"""The non-private baseline: a standard centralized pub-sub broker.

Paper §6.2: "We used a standard centralized pub-sub system as baseline,
where publishers submit their payload and metadata (such as a topic) to a
central broker, subscribers register subscriptions with the broker, and
the broker sends the payload whose metadata matches with a subscription
to the subscriber."

It is the AMQ stand-in (:class:`repro.mq.broker.Broker`) plus one rule,
the same extension point the P3S DS overrides: a subscription is a JMS
topic subscription whose topic is the interest's JSON, a publication is
a JMS message whose headers (JMS properties) carry the plaintext
metadata, and :meth:`BaselineBroker.on_publish` fans each publication
out to every topic whose interest the metadata matches.

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

from ..core.config import ComputeTimings
from ..mq.broker import Broker
from ..mq.messages import JmsFrame
from ..obs import hooks as obs
from ..pbe.schema import Interest

__all__ = ["BaselineBroker"]


class BaselineBroker(Broker):
    """Central broker: match in the clear, deliver to matchers only."""

    def __init__(self, ports, timings: ComputeTimings):
        super().__init__(ports)
        self.timings = timings

    def on_publish(self, src: str, frame: JmsFrame):
        # a one-way handler cannot park on the simulator: the match runs
        # as an activity of its own, as the DS's delegated match does
        yield self.ports.spawn(self._match_and_fan_out(frame))

    def _match_and_fan_out(self, frame: JmsFrame):
        subscriptions = sum(len(clients) for clients in self.subscriptions.values())
        span = obs.start_span(
            "baseline.match",
            component=self.name,
            parent=obs.extract(frame.headers),
            subscriptions=subscriptions,
        )
        # The broker tests the publication against ALL registered
        # subscriptions (t2 = 0.05ms × N_s in the latency model).
        yield self.ports.compute(self.timings.baseline_match * max(1, subscriptions))
        # re-parent the propagated context so each delivery hangs off the match
        obs.inject(frame.headers, span)
        matched = 0
        for topic in list(self.subscriptions):
            if Interest.from_json(topic).matches(frame.headers):
                matched += self.subscriber_count(topic)
                yield from self.fan_out(topic, frame)
        obs.end_span(span, matched=matched)
