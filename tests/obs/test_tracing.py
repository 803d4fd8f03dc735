"""Tracer: span lifecycle, stack discipline, context inject/extract."""

from repro.obs.tracing import CONTEXT_HEADER, Span, SpanContext, Tracer


def make_tracer(start=0.0):
    clock = {"now": start}
    tracer = Tracer()
    tracer.clock = lambda: clock["now"]
    return tracer, clock


class TestSpanLifecycle:
    def test_start_end_records_times(self):
        tracer, clock = make_tracer()
        span = tracer.start_span("work", component="c1")
        clock["now"] = 2.5
        tracer.end_span(span, status="ok")
        assert span.start == 0.0
        assert span.end == 2.5
        assert span.duration == 2.5
        assert span.attributes["status"] == "ok"
        assert span.wall_duration >= 0.0
        assert tracer.spans == [span]

    def test_root_span_gets_fresh_trace(self):
        tracer, _ = make_tracer()
        a = tracer.start_span("a", component="c")
        b = tracer.start_span("b", component="c")
        assert a.trace_id != b.trace_id
        assert a.parent_id is None

    def test_explicit_parent_span(self):
        tracer, _ = make_tracer()
        parent = tracer.start_span("p", component="c")
        child = tracer.start_span("k", component="c", parent=parent)
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id
        assert tracer.children_of(parent) == [child]

    def test_parent_from_context(self):
        tracer, _ = make_tracer()
        remote = SpanContext(trace_id="t-1", span_id="s-1")
        child = tracer.start_span("k", component="c", parent=remote)
        assert child.trace_id == "t-1"
        assert child.parent_id == "s-1"

    def test_scoped_span_nests_via_stack(self):
        tracer, _ = make_tracer()
        with tracer.span("outer", component="c1") as outer:
            assert tracer.current_span() is outer
            assert tracer.current_component() == "c1"
            with tracer.span("inner", component="c2") as inner:
                assert inner.parent_id == outer.span_id
        assert tracer.current_span() is None
        assert outer.finished and inner.finished

    def test_attach_pushes_without_ending(self):
        tracer, _ = make_tracer()
        span = tracer.start_span("long", component="c1")
        with tracer.attach(span):
            assert tracer.current_component() == "c1"
        assert tracer.current_span() is None
        assert not span.finished  # attach never ends the span

    def test_roots_and_walk(self):
        tracer, _ = make_tracer()
        root = tracer.start_span("r", component="c")
        mid = tracer.start_span("m", component="c", parent=root)
        leaf = tracer.start_span("l", component="c", parent=mid)
        other = tracer.start_span("o", component="c")
        assert tracer.roots() == [root, other]
        assert [s.name for s, _ in tracer.walk(root)] == ["r", "m", "l"]


class TestContextPropagation:
    def test_inject_extract_roundtrip(self):
        tracer, _ = make_tracer()
        span = tracer.start_span("s", component="c")
        headers = Tracer.inject({"other": 1}, span)
        assert headers["other"] == 1
        context = Tracer.extract(headers)
        assert context == span.context
        assert isinstance(context, SpanContext)

    def test_extract_missing_or_none(self):
        assert Tracer.extract(None) is None
        assert Tracer.extract({}) is None
        assert Tracer.extract({CONTEXT_HEADER: "garbage"}) is None

    def test_to_dict_is_json_ready(self):
        tracer, clock = make_tracer()
        span = tracer.start_span("s", component="c", k="v")
        clock["now"] = 1.0
        tracer.end_span(span)
        row = span.to_dict()
        assert row["name"] == "s"
        assert row["component"] == "c"
        assert row["attributes"] == {"k": "v"}
        assert row["start_s"] == 0.0
        assert row["end_s"] == 1.0
