"""Unit tests for direct executor-to-executor messaging."""

import pytest

from jitter_free import JitterFreeLatencyModel
from repro.anna import AnnaCluster
from repro.cloudburst import MessageRouter
from repro.cloudburst.messaging import inbox_key
from repro.errors import MessagingError
from repro.sim import RequestContext

import charges


@pytest.fixture
def anna():
    return AnnaCluster(node_count=2, latency_model=JitterFreeLatencyModel())


@pytest.fixture
def router(anna):
    router = MessageRouter(anna)
    router.register_thread("t1")
    router.register_thread("t2")
    return router


class TestRegistration:
    def test_register_returns_deterministic_address(self, router):
        address = router.register_thread("t3")
        assert address == MessageRouter(router.kvs).register_thread("t3")
        # Registered: a message to it takes the direct path.
        assert router.send("t1", "t3", "hi", RequestContext())

    def test_recv_from_unknown_thread_raises(self, router):
        with pytest.raises(MessagingError):
            router.recv("ghost", RequestContext())


class TestDirectPath:
    def test_send_recv_roundtrip(self, router):
        ctx = RequestContext()
        assert router.send("t1", "t2", {"hello": 1}, ctx)
        messages = router.recv("t2", ctx)
        assert messages == [{"hello": 1}]
        assert router.recv("t2", RequestContext()) == []
        assert charges.count(ctx, "cloudburst", "direct_message") == 2

    def test_messages_delivered_in_order(self, router):
        for index in range(5):
            router.send("t1", "t2", index, RequestContext())
        assert router.recv("t2", RequestContext()) == [0, 1, 2, 3, 4]

    def test_recv_with_no_messages_returns_empty(self, router):
        assert router.recv("t2", RequestContext()) == []


class TestInboxFallback:
    def test_unreachable_recipient_uses_anna_inbox(self, router, anna):
        router.mark_unreachable("t2")
        ctx = RequestContext()
        delivered_directly = router.send("t1", "t2", "offline-msg", ctx)
        assert not delivered_directly
        assert anna.contains(inbox_key("t2"))
        # The fallback costs an Anna write rather than a TCP message.
        assert charges.count(ctx, "anna", "put") == 1

    def test_recv_drains_inbox_when_local_queue_empty(self, router):
        router.mark_unreachable("t2")
        router.send("t1", "t2", "first", RequestContext())
        router.send("t1", "t2", "second", RequestContext())
        router.mark_reachable("t2")
        assert router.recv("t2", RequestContext()) == ["first", "second"]

    def test_inbox_messages_not_redelivered(self, router):
        router.mark_unreachable("t2")
        router.send("t1", "t2", "once", RequestContext())
        assert router.recv("t2", RequestContext()) == ["once"]
        assert router.recv("t2", RequestContext()) == []

    def test_unregistered_recipient_also_falls_back(self, router, anna):
        assert not router.send("t1", "t999", "to-nowhere", RequestContext())
        assert anna.contains(inbox_key("t999"))

    def test_mixed_backlog_merged_in_send_order(self, router):
        # Interleave direct and inbox-fallback deliveries: recv must merge
        # both sources into one sequence-ordered batch.
        router.send("t1", "t2", "direct-1", RequestContext())
        router.mark_unreachable("t2")
        router.send("t1", "t2", "inbox-2", RequestContext())
        router.mark_reachable("t2")
        router.send("t1", "t2", "direct-3", RequestContext())
        router.mark_unreachable("t2")
        router.send("t1", "t2", "inbox-4", RequestContext())
        router.mark_reachable("t2")
        assert router.recv("t2", RequestContext()) == [
            "direct-1", "inbox-2", "direct-3", "inbox-4"]
        assert router.recv("t2", RequestContext()) == []

    def test_inbox_not_reread_after_drain(self, router, anna):
        router.mark_unreachable("t2")
        router.send("t1", "t2", "offline", RequestContext())
        router.mark_reachable("t2")
        assert router.recv("t2", RequestContext()) == ["offline"]
        # A later recv with direct traffic does not re-deliver inbox content.
        router.send("t1", "t2", "direct", RequestContext())
        assert router.recv("t2", RequestContext()) == ["direct"]


class TestAddressMapping:
    def test_mapping_is_deterministic(self, router):
        assert router.register_thread("worker-7") == router.register_thread("worker-7")

    def test_different_threads_usually_differ(self, router):
        addresses = {router.register_thread(f"thread-{i}") for i in range(50)}
        assert len(addresses) > 45
