"""End-to-end observability: span propagation across the simulated system."""

import pytest

from repro.core import P3SConfig, P3SSystem
from repro.obs import Observability, to_openmetrics
from repro.obs.export import spans_to_jsonl
from repro.obs import hooks
from repro.pbe import AttributeSpec, Interest, MetadataSchema

from .openmetrics import parse_openmetrics


SCHEMA = MetadataSchema([AttributeSpec("topic", ("a", "b", "c", "d"))])


def run_system(obs):
    """One publisher, two matching + one non-matching subscriber, one publication."""
    system = P3SSystem(P3SConfig(schema=SCHEMA, obs=obs))
    for index, topic in enumerate(("a", "a", "b")):
        subscriber = system.add_subscriber(f"s{index}", {"org"})
        system.subscribe(subscriber, Interest({"topic": topic}))
    system.run()
    publisher = system.add_publisher("pub")
    system.run()
    record = publisher.publish({"topic": "a"}, b"payload", policy="org")
    system.run()
    return system, record


@pytest.fixture()
def traced_run():
    obs = Observability()
    try:
        system, record = run_system(obs)
        yield obs, system, record
    finally:
        obs.uninstall()


class TestSpanPropagation:
    def test_one_root_span_per_publication(self, traced_run):
        obs, system, record = traced_run
        publish_roots = [
            span for span in obs.tracer.roots() if span.name == "publish"
        ]
        assert len(publish_roots) == 1
        (root,) = publish_roots
        assert root.component == "pub"
        assert root.attributes["publication_id"] == record.publication_id

    def test_child_span_per_hop(self, traced_run):
        obs, system, record = traced_run
        (root,) = [s for s in obs.tracer.roots() if s.name == "publish"]
        tree = [span for span, _ in obs.tracer.walk(root)]
        names = [span.name for span in tree]
        # publisher-side stages
        assert names.count("pbe.encrypt") == 1
        assert names.count("abe.encrypt") == 1
        # broker hops
        assert names.count("ds.fan_out") == 1
        assert names.count("ds.forward_rs") == 1
        assert names.count("rs.store") == 1
        # all three subscribers match-test the broadcast; two match + retrieve
        assert names.count("subscriber.match") == 3
        assert names.count("subscriber.retrieve") == 2
        assert names.count("anon.forward") == 2
        assert names.count("abe.decrypt") == 2
        assert names.count("deliver") == 2
        # everything hangs off the ONE publish trace, up to the anonymizer:
        # the RS's side of a fetch starts a trace of its own
        assert names.count("rs.retrieve") == 0
        assert {span.trace_id for span in tree} == {root.trace_id}
        assert all(s.parent_id is None for s in obs.tracer.find("rs.retrieve"))

    def test_hop_parentage(self, traced_run):
        obs, system, _ = traced_run
        (fan_out,) = obs.tracer.find("ds.fan_out")
        for match in obs.tracer.find("subscriber.match"):
            assert match.parent_id == fan_out.span_id
        for retrieve in obs.tracer.find("subscriber.retrieve"):
            parent = next(
                s for s in obs.tracer.spans if s.span_id == retrieve.parent_id
            )
            assert parent.name == "subscriber.match"
            assert parent.component == retrieve.component

    def test_match_outcomes_attributed(self, traced_run):
        obs, system, _ = traced_run
        outcomes = {
            span.component: span.attributes["matched"]
            for span in obs.tracer.find("subscriber.match")
        }
        assert outcomes == {"s0": True, "s1": True, "s2": False}

    def test_crypto_ops_attributed_to_components(self, traced_run):
        obs, system, _ = traced_run
        by_component = obs.metrics.counters_by_label("op.hve.match", "component")
        assert by_component == {"s0": 1, "s1": 1, "s2": 1}
        assert obs.metrics.counter_total("op.hve.match_hit") == 2
        assert obs.metrics.counter_value("op.abe.decrypt", component="s0") == 1
        assert obs.metrics.counter_value("op.hve.encrypt", component="pub") == 1
        assert obs.metrics.counter_total("op.pairing") > 0

    def test_all_spans_finished(self, traced_run):
        obs, _, _ = traced_run
        assert obs.tracer.spans  # non-trivial run
        assert all(span.finished for span in obs.tracer.spans)

    def test_exports_nonempty(self, traced_run):
        obs, _, _ = traced_run
        jsonl = spans_to_jsonl(obs.tracer.spans)
        assert len(jsonl.strip().splitlines()) == len(list(obs.tracer.spans))
        exposition = parse_openmetrics(to_openmetrics(obs.metrics))
        assert exposition.total("p3s_net_bytes_total") == obs.metrics.counter_total("net.bytes") > 0
        tree = obs.format_tree()
        assert "publish [pub]" in tree
        assert "hve.match" in obs.format_ops()


class TestRegistryTotals:
    def test_net_bytes_agree_with_the_host_counters(self, traced_run):
        obs, system, _ = traced_run
        sent = obs.metrics.counters_by_label("net.bytes", "src")
        received = obs.metrics.counters_by_label("net.bytes", "dst")
        for name, host in system.network.hosts.items():
            assert (sent.get(name, 0), received.get(name, 0)) == (
                host.bytes_sent,
                host.bytes_received,
            )

    def test_crypto_op_totals(self, traced_run):
        obs, _, _ = traced_run
        assert obs.metrics.counter_total("op.hve.match") == 3
        assert obs.metrics.counter_total("op.abe.decrypt") == 2


class TestDisabledMode:
    def test_disabled_run_records_nothing(self):
        sentinel = Observability()  # never installed
        system, record = run_system(obs=None)
        assert len(system.deliveries_for(record)) == 2
        assert sentinel.metrics.empty
        assert list(sentinel.tracer.spans) == []
        assert hooks.active() is None

    def test_host_byte_counters_run_without_observability(self):
        system, _ = run_system(obs=None)
        assert system.network.hosts["ds"].bytes_sent > 0

    def test_uninstall_stops_recording(self):
        obs = Observability()
        obs.install()
        obs.uninstall()
        hooks.record_op("pairing")
        assert obs.metrics.empty

    def test_install_is_exclusive(self):
        first, second = Observability(), Observability()
        try:
            first.install()
            second.install()
            assert hooks.active() is second
            hooks.record_op("pairing")
            assert first.metrics.empty
            assert second.metrics.counter_total("op.pairing") == 1
        finally:
            hooks.deactivate()


@pytest.mark.live
class TestLiveSpanPropagation:
    """The same publish trace, reassembled across real TCP sockets.

    Span context rides in the live wire-frame headers, so every hop —
    publisher → DS fan-out → subscriber match → anonymizer → delivery —
    must land in ONE trace even though each leg crossed a socket.  The
    anonymizer forwards no context: the RS's retrieve is a root.
    """

    def _run_live(self, obs):
        import asyncio

        from repro.core.config import P3SConfig
        from repro.live.deployment import LiveDeployment

        async def scenario():
            deployment = LiveDeployment(P3SConfig(schema=SCHEMA, obs=obs))
            await deployment.start()
            try:
                alice = await deployment.add_subscriber("alice", {"org"})
                await alice.subscribe(Interest({"topic": "a"}))
                publisher = await deployment.add_publisher("pub")
                record = await publisher.publish(
                    {"topic": "a"}, b"traced", policy="org"
                )
                await alice.wait_for_deliveries(1, timeout_s=60.0)
                return record
            finally:
                await deployment.close()

        return asyncio.run(asyncio.wait_for(scenario(), 120.0))

    def test_publish_trace_spans_every_networked_hop(self):
        obs = Observability()
        try:
            record = self._run_live(obs)
            (root,) = [s for s in obs.tracer.roots() if s.name == "publish"]
            assert root.component == "pub"
            assert root.attributes["publication_id"] == record.publication_id
            tree = [span for span, _ in obs.tracer.walk(root)]
            names = [span.name for span in tree]
            for hop in (
                "pbe.encrypt",
                "abe.encrypt",
                "ds.fan_out",
                "ds.forward_rs",
                "rs.store",
                "subscriber.match",
                "subscriber.retrieve",
                "anon.forward",
                "abe.decrypt",
                "deliver",
            ):
                assert names.count(hop) == 1, hop
            # one trace id across publisher, DS, RS, and subscriber spans,
            # despite every parent/child edge crossing a socket boundary
            assert {span.trace_id for span in tree} == {root.trace_id}
            components = {span.component for span in tree}
            assert {"pub", "ds", "rs", "alice", "anon"} <= components
            assert "rs.retrieve" not in names
        finally:
            obs.uninstall()

    def test_cross_socket_parentage(self):
        obs = Observability()
        try:
            self._run_live(obs)
            (fan_out,) = obs.tracer.find("ds.fan_out")
            (match,) = obs.tracer.find("subscriber.match")
            (retrieve,) = obs.tracer.find("subscriber.retrieve")
            (rs_retrieve,) = obs.tracer.find("rs.retrieve")
            # DS→subscriber edge restored from wire headers
            assert match.parent_id == fan_out.span_id
            # subscriber→anonymizer request edge restored from RPC headers,
            # exactly as in the simulator; the relayed request carries none
            assert retrieve.parent_id == match.span_id
            anon_hops = [
                s for s in obs.tracer.find("anon.forward")
                if s.parent_id == retrieve.span_id
            ]
            assert len(anon_hops) == 1
            assert rs_retrieve.parent_id is None
        finally:
            obs.uninstall()
