"""Unit tests for the span exporters (JSON dump + Chrome trace events)."""

import json

from repro.obs import (
    Tracer,
    spans_to_json,
    to_chrome_trace,
    write_chrome_trace,
    write_span_dump,
)


def _sample_tracer():
    tracer = Tracer()
    root = tracer.start_trace("call", "client", 0.0, node="client-0")
    schedule = tracer.start_span("schedule", "scheduler", 1.0, root,
                                 node="scheduler-0")
    schedule.finish(2.0)
    invoke = tracer.start_span("invoke", "executor", 2.0, root, node="vm-0:1")
    invoke.annotate("function", "work").finish(7.0)
    root.finish(7.5)
    return tracer


class TestJsonDump:
    def test_spans_to_json_carries_causal_fields(self):
        records = spans_to_json(_sample_tracer())
        assert len(records) == 3
        root = records[0]
        assert root["parent_id"] is None
        children = [r for r in records if r["parent_id"] == root["span_id"]]
        assert {r["name"] for r in children} == {"schedule", "invoke"}

    def test_write_span_dump_round_trips(self, tmp_path):
        path = write_span_dump(tmp_path / "spans.json", _sample_tracer(),
                               meta={"source": "unit"})
        payload = json.loads(path.read_text())
        assert payload["meta"] == {"source": "unit"}
        assert len(payload["spans"]) == 3


class TestChromeTrace:
    def test_document_shape(self):
        document = to_chrome_trace(_sample_tracer())
        events = document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"
        complete = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 3
        # One process_name per tier, one thread_name per (tier, node).
        assert sum(1 for e in metadata if e["name"] == "process_name") == 3
        assert sum(1 for e in metadata if e["name"] == "thread_name") == 3
        assert {e["args"]["name"] for e in metadata
                if e["name"] == "process_name"} == \
            {"client", "scheduler", "executor"}

    def test_timestamps_are_microseconds(self):
        document = to_chrome_trace(_sample_tracer())
        schedule = next(e for e in document["traceEvents"]
                        if e.get("name") == "schedule" and e["ph"] == "X")
        assert schedule["ts"] == 1000.0  # 1 ms -> 1000 us
        assert schedule["dur"] == 1000.0

    def test_events_carry_causal_args(self):
        document = to_chrome_trace(_sample_tracer())
        invoke = next(e for e in document["traceEvents"]
                      if e.get("name") == "invoke" and e["ph"] == "X")
        assert invoke["args"]["parent_id"] is not None
        assert invoke["args"]["function"] == "work"

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        path = write_chrome_trace(tmp_path / "trace.json", _sample_tracer())
        payload = json.loads(path.read_text())
        assert payload["traceEvents"]

    def test_links_rendered_as_strings(self):
        tracer = Tracer()
        first = tracer.start_trace("attempt", "scheduler", 0.0).finish(1.0)
        retry = tracer.start_trace("attempt", "scheduler", 2.0)
        retry.link("retry_of", first.span_id).finish(3.0)
        document = to_chrome_trace(tracer)
        linked = next(e for e in document["traceEvents"]
                      if e["ph"] == "X" and "links" in e["args"])
        assert linked["args"]["links"] == [f"retry_of:{first.span_id}"]
