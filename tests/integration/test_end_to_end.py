"""End-to-end integration tests: the full client → scheduler → executor →
cache → Anna request path, mirroring the programming interface of §3."""

import pytest

from repro import CloudburstCluster, CloudburstReference, ConsistencyLevel


@pytest.fixture
def cluster():
    return CloudburstCluster(executor_vms=3, threads_per_vm=3, scheduler_count=2,
                             anna_nodes=4, seed=42)


@pytest.fixture
def cloud(cluster):
    return cluster.connect()


class TestFigure2Script:
    """The exact interaction pattern of the paper's Figure 2 example."""

    def test_figure2_flow(self, cloud):
        cloud.put("key", 2)
        reference = CloudburstReference("key")
        sq = cloud.register(lambda x: x * x, name="square")
        assert sq(reference) == 4
        future = sq(3, store_in_kvs=True)
        assert future.get() == 9


class TestStatefulFunctions:
    def test_function_state_shared_through_kvs(self, cloud):
        def writer(cloudburst, key, value):
            cloudburst.put(key, value)
            return True

        def reader(cloudburst, key):
            return cloudburst.get(key)

        cloud.register(writer, name="writer")
        cloud.register(reader, name="reader")
        assert cloud.call("writer", ["shared", {"n": 1}]).value
        assert cloud.call("reader", ["shared"]).value == {"n": 1}

    def test_composition_through_dag(self, cloud):
        cloud.register(lambda x: x + 1, name="increment")
        cloud.register(lambda x: x * x, name="square")
        cloud.register_dag("composition", ["increment", "square"],
                           [("increment", "square")])
        result = cloud.call_dag("composition", {"increment": [4]})
        assert result.value == 25
        assert result.latency_ms > 0

    def test_repeated_execution_reuses_cached_functions(self, cluster, cloud):
        cloud.register(lambda x: x, name="echo")
        cloud.register_dag("echo-dag", ["echo"])
        for index in range(20):
            assert cloud.call_dag("echo-dag", {"echo": [index]}).value == index
        # The function body is fetched/deserialized at most once per executor.
        fetches = sum(
            1 for vm in cluster.vms for thread in vm.threads
            if thread.has_function("echo"))
        assert fetches <= cluster.live_thread_count()

    def test_direct_communication_between_invocations(self, cluster, cloud):
        def advertise(cloudburst, mailbox_key):
            cloudburst.put(mailbox_key, cloudburst.get_id())
            return cloudburst.get_id()

        def send_to(cloudburst, mailbox_key, message):
            recipient = cloudburst.get(mailbox_key)
            return cloudburst.send(recipient, message)

        cloud.register(advertise, name="advertise")
        cloud.register(send_to, name="send_to")
        advertiser_id = cloud.call("advertise", ["mailbox"]).value
        assert cloud.call("send_to", ["mailbox", "hello"]).value is True
        with cluster.request() as ctx:
            assert cluster.router.recv(advertiser_id, ctx) == ["hello"]


class TestLocalityAndCaching:
    def test_reference_heavy_workload_hits_caches(self, cluster, cloud):
        cloud.put("big-object", list(range(10_000)))
        cloud.register(lambda data: len(data), name="measure")
        reference = CloudburstReference("big-object")
        first = cloud.call("measure", [reference])
        latencies = [cloud.call("measure", [reference]).latency_ms for _ in range(10)]
        assert first.value == 10_000
        assert cluster.cache_hit_rate() > 0.5
        # Warm calls should generally not be slower than the cold call.
        assert min(latencies) <= first.latency_ms * 1.5

    def test_data_written_by_functions_visible_to_clients(self, cloud):
        def accumulate(cloudburst, key, amount):
            try:
                current = cloudburst.get(key)
            except Exception:
                current = 0
            cloudburst.put(key, current + amount)
            return current + amount

        cloud.register(accumulate, name="accumulate")
        for expected in (5, 10, 15):
            assert cloud.call("accumulate", ["counter", 5]).value == expected
        assert cloud.get("counter") == 15


class TestMultipleClientsAndSchedulers:
    def test_clients_share_state_and_functions(self, cluster):
        alice = cluster.connect("alice")
        bob = cluster.connect("bob")
        alice.put("greeting", "hi from alice")
        assert bob.get("greeting") == "hi from alice"
        alice.register(lambda s: s.upper(), name="shout")
        assert bob.call("shout", ["quiet"]).value == "QUIET"

    def test_consistency_level_override_per_call(self, cloud):
        cloud.register(lambda x: x, name="echo")
        result = cloud.call("echo", [1],
                            consistency=ConsistencyLevel.DISTRIBUTED_SESSION_RR)
        assert result.value == 1
        assert result.session.level == ConsistencyLevel.DISTRIBUTED_SESSION_RR


class TestLatencyAccounting:
    def test_latency_includes_scheduling_and_execution(self, cloud):
        cloud.register(lambda: "ok", name="noop")
        result = cloud.call("noop")
        breakdown = result.ctx.breakdown()
        assert ("cloudburst", "client_to_scheduler") in breakdown
        assert ("cloudburst", "invoke") in breakdown
        assert result.latency_ms >= sum(
            v for (service, _), v in breakdown.items() if service == "cloudburst") * 0.5

    def test_simulated_compute_dominates_for_heavy_functions(self, cloud):
        def heavy(cloudburst):
            cloudburst.simulate_compute(200.0)
            return True

        cloud.register(heavy, name="heavy")
        result = cloud.call("heavy")
        assert result.latency_ms > 150.0
