"""The baseline broker is the JMS broker P3S extends, plus a match rule."""

from repro.baseline import BaselineSystem
from repro.mq.broker import Broker
from repro.pbe import Interest


def test_the_baseline_broker_is_the_jms_broker():
    assert isinstance(BaselineSystem().broker, Broker)


def test_every_baseline_delivery_is_acked():
    system = BaselineSystem()
    for name, topic in (("s0", "hot"), ("s1", "hot"), ("s2", "cold"), ("s3", "cold")):
        system.add_subscriber(name).subscribe(Interest({"topic": topic}))
    system.run()
    publisher = system.add_publisher("p")
    for topic in ("hot", "cold", "hot", "none"):
        publisher.publish({"topic": topic}, b"x")
    system.run()
    broker = system.broker
    assert broker.published_count == 4
    assert broker.delivered_count == 6
    assert broker.acked_count == broker.delivered_count
