"""Unit tests for KVS references and futures."""

from types import SimpleNamespace

import pytest

from repro.cloudburst import CloudburstFuture, CloudburstReference, extract_references
from repro.errors import FutureTimeoutError


class TestCloudburstReference:
    def test_requires_key(self):
        with pytest.raises(ValueError):
            CloudburstReference("")

    def test_equality_and_hash(self):
        assert CloudburstReference("k") == CloudburstReference("k")
        assert CloudburstReference("k") != CloudburstReference("other")
        assert len({CloudburstReference("k"), CloudburstReference("k")}) == 1

    def test_repr_contains_key(self):
        assert "mykey" in repr(CloudburstReference("mykey"))


class TestExtractReferences:
    def test_finds_top_level_references(self):
        refs = extract_references([1, CloudburstReference("a"), "x"])
        assert [r.key for r in refs] == ["a"]

    def test_finds_nested_references(self):
        args = [
            [CloudburstReference("in-list")],
            {"key": CloudburstReference("in-dict")},
            (CloudburstReference("in-tuple"),),
        ]
        keys = {r.key for r in extract_references(args)}
        assert keys == {"in-list", "in-dict", "in-tuple"}

    def test_no_references(self):
        assert extract_references([1, "two", {"three": 3}]) == []


def _result(value):
    """A stand-in ExecutionResult: the future reads its ``value`` and ``result_key``."""
    return SimpleNamespace(value=value, latency_ms=1.5, result_key=None)


class TestCloudburstFuture:
    def test_completion_hook_resolves_value_and_payload(self):
        future = CloudburstFuture()
        assert not future.done() and not future.is_ready()
        payload = _result(42)
        future._set_result(payload)
        assert future.is_ready()
        assert future.get() == 42
        assert future.result() is payload
        assert future.latency_ms == 1.5

    def test_pending_without_a_backend_raises_at_once(self):
        future = CloudburstFuture()
        with pytest.raises(FutureTimeoutError) as raised:
            future.get(timeout_ms=5.0)   # nothing to advance: raises at once
        assert raised.value.timeout_ms == 5.0
        assert future.result_key is None

    def test_get_timeout_advances_through_the_backend_hook(self):
        # The advance hook is the engine pump; here a stub "engine" resolves
        # the future only when asked to make progress.
        def advance(future, timeout_ms):
            future._set_result(_result("pumped"))

        future = CloudburstFuture(advance=advance)
        assert not future.done()
        assert future.get(timeout_ms=10.0) == "pumped"

    def test_failed_future_reraises_on_get_and_exposes_exception(self):
        future = CloudburstFuture()
        boom = RuntimeError("session failed")
        future._set_exception(boom)
        assert future.done()
        assert not future.is_ready()   # ready means a *value* is available
        assert future.exception() is boom
        with pytest.raises(RuntimeError):
            future.get()
        with pytest.raises(RuntimeError):
            future.result()

    def test_done_callbacks_fire_at_resolution_and_immediately_after(self):
        future = CloudburstFuture()
        seen = []
        future.add_done_callback(lambda f: seen.append("first"))
        assert seen == []
        future._set_result(_result(1))
        assert seen == ["first"]
        future.add_done_callback(lambda f: seen.append("late"))
        assert seen == ["first", "late"]  # post-resolution subscriber runs now

    def test_repr_shows_state(self):
        future = CloudburstFuture()
        assert "pending" in repr(future)
        future._set_result(_result(1))
        assert "ready" in repr(future)
        failed = CloudburstFuture()
        failed._set_exception(ValueError("nope"))
        assert "failed" in repr(failed)
