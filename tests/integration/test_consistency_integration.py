"""Integration tests for distributed session consistency across executors."""


from repro import CloudburstCluster, ConsistencyLevel
from repro.anna import AnnaCluster
from repro.cloudburst import AnomalyTracker


def make_cluster(level, **kwargs):
    return CloudburstCluster(executor_vms=3, threads_per_vm=2, consistency=level,
                             seed=17, **kwargs)


class TestRepeatableReadAcrossExecutors:
    def test_dag_reads_one_consistent_version_despite_interleaved_writes(self):
        cluster = make_cluster(ConsistencyLevel.DISTRIBUTED_SESSION_RR,
                               anna_propagation=AnnaCluster.PROPAGATE_PERIODIC)
        cloud = cluster.connect()
        cloud.put("shared", "v0")

        observed = []

        def read_then_update(cloudburst, key):
            value = cloudburst.get(key)
            observed.append(value)
            # Another client sneaks in a write between the DAG's functions.
            cluster.connect("interloper").put(key, f"overwritten-{len(observed)}")
            return value

        def read_again(cloudburst, upstream_value, key):
            value = cloudburst.get(key)
            observed.append(value)
            return (upstream_value, value)

        cloud.register(read_then_update, name="first_read")
        cloud.register(read_again, name="second_read")
        cloud.register_dag("rr-session", ["first_read", "second_read"],
                           [("first_read", "second_read")])
        for _ in range(5):
            observed.clear()
            result = cloud.call_dag("rr-session", {"first_read": ["shared"],
                                                   "second_read": ["shared"]})
            upstream_value, downstream_value = result.value
            assert upstream_value == downstream_value, \
                "repeatable read must pin one version for the whole DAG"

    def test_lww_mode_can_observe_different_versions(self):
        """Control experiment: without the protocol the anomaly is possible."""
        cluster = make_cluster(ConsistencyLevel.LWW,
                               anna_propagation=AnnaCluster.PROPAGATE_PERIODIC)
        cloud = cluster.connect()
        cloud.put("shared", "v0")

        def read_then_update(cloudburst, key):
            value = cloudburst.get(key)
            cluster.connect("interloper").put(key, f"new-{value}")
            cluster.kvs.flush_updates()
            return value

        def read_again(cloudburst, upstream_value, key):
            return (upstream_value, cloudburst.get(key))

        cloud.register(read_then_update, name="first_read")
        cloud.register(read_again, name="second_read")
        cloud.register_dag("lww-session", ["first_read", "second_read"],
                           [("first_read", "second_read")])
        mismatches = 0
        for _ in range(10):
            upstream_value, downstream_value = cloud.call_dag(
                "lww-session", {"first_read": ["shared"],
                                "second_read": ["shared"]}).value
            if upstream_value != downstream_value:
                mismatches += 1
        assert mismatches > 0


class TestCausalSessionAcrossExecutors:
    def test_write_then_read_your_causal_history(self):
        cluster = make_cluster(ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL)
        cloud = cluster.connect()
        cloud.put("profile", {"version": 0})
        cloud.put("timeline", [])

        def update_profile(cloudburst):
            profile = cloudburst.get("profile")
            cloudburst.put("profile", {"version": profile["version"] + 1})
            cloudburst.put("timeline", ["profile updated"])
            return True

        def render(cloudburst, _upstream):
            timeline = cloudburst.get("timeline")
            profile = cloudburst.get("profile")
            return (profile, timeline)

        cloud.register(update_profile, name="update_profile")
        cloud.register(render, name="render")
        cloud.register_dag("causal-session", ["update_profile", "render"],
                           [("update_profile", "render")])
        profile, timeline = cloud.call_dag("causal-session").value
        # The render step must see the session's own writes (or newer).
        assert profile["version"] >= 1
        assert timeline == ["profile updated"]

    def test_causal_mode_exposes_concurrent_versions_to_applications(self):
        cluster = make_cluster(ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL)
        # Two writers race: neither saw the other's version before writing, so
        # Anna retains both as concurrent siblings.
        from repro.cloudburst import LatticeEncapsulator

        writer_a = LatticeEncapsulator("writer-a",
                                       ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL)
        writer_b = LatticeEncapsulator("writer-b",
                                       ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL)
        cluster.kvs.background_put("doc", writer_a.encapsulate("version-from-a"))
        cluster.kvs.background_put("doc", writer_b.encapsulate("version-from-b"))

        def read_all(cloudburst, key):
            return cloudburst.get_all_versions(key)

        reader = cluster.connect("reader",
                                 consistency=ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL)
        reader.register(read_all, name="read_all")
        versions = reader.call("read_all", ["doc"]).value
        assert set(versions) == {"version-from-a", "version-from-b"}
        # The single-version API still returns a deterministic winner.
        single = reader.register(lambda cloudburst, key: cloudburst.get(key),
                                 name="read_one")
        assert single("doc") in versions


class TestAnomalyTrackingEndToEnd:
    def test_lww_execution_with_tracker_counts_anomalies(self):
        tracker = AnomalyTracker()
        cluster = CloudburstCluster(
            executor_vms=3, threads_per_vm=2, consistency=ConsistencyLevel.LWW,
            seed=5, anomaly_tracker=tracker,
            anna_propagation=AnnaCluster.PROPAGATE_PERIODIC)
        cloud = cluster.connect()
        cloud.put("x", "seed")

        def read_write(cloudburst, key):
            value = cloudburst.get(key)
            cloudburst.put(key, f"updated-by-{cloudburst.get_id()}")
            return value

        cloud.register(read_write, name="read_write")
        for index in range(30):
            cloud.call("read_write", ["x"])
            if index % 5 == 0:
                cluster.kvs.flush_updates()
        assert tracker.report.executions == 30
        assert tracker.report.single_key > 0


class TestMixedLevelCluster:
    """One rule for who repairs the causal cut, single-key or batched."""

    @staticmethod
    def _cached_after_read(session_level, batched):
        cluster = CloudburstCluster(
            executor_vms=1, threads_per_vm=1, seed=5,
            consistency=ConsistencyLevel.MULTI_KEY_CAUSAL,
            prefetch_references=False)
        cloud = cluster.connect()

        def write_pair(cloudburst):
            cloudburst.put("dep", "d")
            cloudburst.put("k", "v")  # causally after the session's "dep"

        def read_one(cloudburst, key):
            return cloudburst.get(key)

        def read_batch(cloudburst, key):
            return cloudburst.get_many([key])[key]

        cloud.register(write_pair, name="write_pair")
        cloud.register(read_one, name="read_one")
        cloud.register(read_batch, name="read_batch")
        cloud.call("write_pair", []).result()
        assert "dep" in cluster.kvs.peek("k").dependencies
        cache = cluster.vms[0].cache
        cache.clear()
        name = "read_batch" if batched else "read_one"
        assert cloud.call(name, ["k"], consistency=session_level) \
            .result().value == "v"
        return cache.cached_keys()

    def test_lww_and_sk_sessions_never_repair_the_cut(self):
        # Regression: get(k) left ["k"] but get_many([k]) also pulled in
        # "dep", because only the batched twin ran the cut repair.
        for level in (ConsistencyLevel.LWW, ConsistencyLevel.SINGLE_KEY_CAUSAL):
            for batched in (False, True):
                assert self._cached_after_read(level, batched) == ["k"]

    def test_mk_and_dsc_sessions_always_repair_the_cut(self):
        for level in (ConsistencyLevel.MULTI_KEY_CAUSAL,
                      ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL):
            for batched in (False, True):
                assert self._cached_after_read(level, batched) == ["dep", "k"]
