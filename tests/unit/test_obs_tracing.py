"""Unit tests for the tracing core: spans, sampling, tree queries over
``Tracer.spans``."""

import pytest

from repro.obs import Tracer


class TestSpanBasics:
    def test_root_and_child_share_trace_id(self):
        tracer = Tracer()
        root = tracer.start_trace("call", "client", 0.0)
        child = tracer.start_span("schedule", "scheduler", 1.0, root,
                                  node="scheduler-0")
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert root.parent_id is None
        assert child.node == "scheduler-0"

    def test_span_ids_are_deterministic_counters(self):
        first = Tracer()
        second = Tracer()
        for tracer in (first, second):
            root = tracer.start_trace("a", "client", 0.0)
            tracer.start_span("b", "scheduler", 1.0, root)
            tracer.start_trace("c", "client", 2.0)
        assert [s.span_id for s in first.spans] == \
            [s.span_id for s in second.spans]
        assert [s.trace_id for s in first.spans] == \
            [s.trace_id for s in second.spans]

    def test_finish_never_moves_time_backwards(self):
        tracer = Tracer()
        span = tracer.start_trace("a", "client", 10.0)
        span.finish(5.0)
        assert span.end_ms == 10.0
        assert span.duration_ms == 0.0

    def test_unfinished_span_has_zero_duration(self):
        tracer = Tracer()
        span = tracer.start_trace("a", "client", 10.0)
        assert span.end_ms is None
        assert span.duration_ms == 0.0
        assert tracer.unfinished_spans() == [span]

    def test_annotate_and_link_are_chainable_and_lazy(self):
        tracer = Tracer()
        span = tracer.start_trace("a", "client", 0.0)
        assert span.attrs is None and span.links is None  # lazy allocation
        assert span.annotate("key", "k1").annotate("hit", True) is span
        assert span.link("retry_of", 17) is span
        record = span.to_dict()
        assert record["attrs"] == {"key": "k1", "hit": True}
        assert record["links"] == [{"relation": "retry_of", "span_id": 17}]

    def test_to_dict_omits_empty_attrs_and_links(self):
        tracer = Tracer()
        record = tracer.start_trace("a", "client", 0.0).finish(2.0).to_dict()
        assert "attrs" not in record and "links" not in record
        assert record["duration_ms"] == 2.0


class TestSampling:
    def test_rate_zero_creates_nothing(self):
        tracer = Tracer(sample_rate=0.0)
        assert not tracer.enabled
        for _ in range(100):
            assert tracer.start_trace("a", "client", 0.0) is None
        # Background spans honour the global off switch too.
        tracer.record_background("gossip", "anna", 0.0, 1.0)
        assert len(tracer) == 0

    def test_rate_one_traces_everything(self):
        tracer = Tracer(sample_rate=1.0)
        spans = [tracer.start_trace("a", "client", 0.0) for _ in range(10)]
        assert all(span is not None for span in spans)

    def test_error_diffusion_is_exact_not_random(self):
        # 0.25 must trace exactly every fourth request, deterministically.
        tracer = Tracer(sample_rate=0.25)
        sampled = [tracer.start_trace("a", "client", 0.0) is not None
                   for _ in range(20)]
        assert sampled == ([False, False, False, True] * 5)

    def test_background_bypasses_request_sampling(self):
        tracer = Tracer(sample_rate=0.01)
        tracer.record_background("gossip", "anna", 5.0, 7.0, node="anna-0",
                                 keys=3)
        tracer.record_background("gossip", "anna", 6.0, 6.5)
        first, second = tracer.spans
        assert first.parent_id is None and first.end_ms == 7.0
        assert first.node == "anna-0"
        # ``background`` is the first attribute, so span dumps keep its place.
        assert list(first.attrs.items()) == [("background", True), ("keys", 3)]
        assert second.attrs == {"background": True}
        # Background traces get their own trace ids.
        assert second.trace_id != first.trace_id

    def test_background_spans_leave_request_sampling_unchanged(self):
        # A gossip round between requests must not shift which requests
        # are traced: 0.25 still traces exactly every fourth one.
        tracer = Tracer(sample_rate=0.25)
        sampled = []
        for i in range(20):
            tracer.record_background("gossip", "anna", float(i), i + 0.5)
            sampled.append(tracer.start_trace("a", "client", 0.0) is not None)
        assert sampled == ([False, False, False, True] * 5)
        assert sum(1 for span in tracer.spans
                   if (span.attrs or {}).get("background")) == 20

    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=-0.1)
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)


class TestQueries:
    def _build(self):
        tracer = Tracer()
        root = tracer.start_trace("call", "client", 0.0)
        schedule = tracer.start_span("schedule", "scheduler", 1.0, root).finish(2.0)
        invoke = tracer.start_span("invoke", "executor", 2.0, root)
        tracer.start_span("kvs_service", "anna", 3.0, invoke).finish(4.0)
        invoke.finish(5.0)
        root.finish(5.0)
        return tracer, root, schedule, invoke

    def test_tree_queries(self):
        tracer, root, schedule, invoke = self._build()
        assert [span for span in tracer.spans if span.parent_id is None] == [root]
        assert tracer.orphan_spans() == []
        assert tracer.unfinished_spans() == []
        assert [span for span in tracer.spans
                if span.parent_id == root.span_id] == [schedule, invoke]
        assert {span.trace_id for span in tracer.spans} == {root.trace_id}
        assert tracer.tiers() == ["client", "scheduler", "executor", "anna"]

    def test_parent_ids_nest_children(self):
        tracer, root, schedule, invoke = self._build()
        kvs = tracer.spans[-1]
        assert (schedule.parent_id, invoke.parent_id, kvs.parent_id) == \
            (root.span_id, root.span_id, invoke.span_id)
        assert [record["parent_id"] for record in
                (span.to_dict() for span in tracer.spans)] == \
            [None, root.span_id, root.span_id, invoke.span_id]

    def test_durations_by_tier_and_name(self):
        tracer, _root, _schedule, _invoke = self._build()
        assert {(span.tier, span.name): span.duration_ms
                for span in tracer.spans} == {
            ("client", "call"): 5.0, ("scheduler", "schedule"): 1.0,
            ("executor", "invoke"): 3.0, ("anna", "kvs_service"): 1.0}

    def test_orphan_detection(self):
        tracer, root, _schedule, invoke = self._build()
        # Adopt only a child into a fresh tracer: its parent is now unknown.
        merged = Tracer()
        merged.spans.append(invoke)
        assert merged.orphan_spans() == [invoke]
        merged.spans.append(root)
        # invoke's parent is root, which is now present.
        assert [s.span_id for s in merged.orphan_spans()] == []

    def test_clear_keeps_id_counters_monotonic(self):
        tracer, root, _schedule, _invoke = self._build()
        highest = max(span.span_id for span in tracer.spans)
        tracer.clear()
        assert len(tracer) == 0
        fresh = tracer.start_trace("next", "client", 9.0)
        assert fresh.span_id > highest
        assert fresh.trace_id > root.trace_id
