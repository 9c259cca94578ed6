"""Integration tests for the three application case studies (§6.1.3, §6.3)."""

import pytest

from repro import CloudburstCluster, ConsistencyLevel
from repro.anna import AnnaCluster
from repro.apps import (
    GatherAggregation,
    GossipAggregation,
    PredictionBaselines,
    RetwisOnCloudburst,
    RetwisOnRedis,
    deploy_on_cloudburst,
    make_image,
)
from repro.sim import RequestContext
from repro.workloads import SocialWorkloadGenerator


class TestPredictionServing:
    def test_pipeline_serves_predictions_on_cloudburst(self):
        cluster = CloudburstCluster(executor_vms=2, seed=1)
        deployment = deploy_on_cloudburst(cluster)
        image = make_image(side=256, seed=0)
        prediction, latency = deployment.serve(image)
        assert prediction["label"].startswith("class-")
        assert 0.0 < prediction["confidence"] <= 1.0
        assert latency > 150.0  # dominated by the model's simulated compute

    def test_all_platforms_agree_on_the_prediction(self):
        cluster = CloudburstCluster(executor_vms=2, seed=1)
        deployment = deploy_on_cloudburst(cluster)
        baselines = PredictionBaselines()
        image = make_image(side=256, seed=3)
        cloudburst_prediction, _ = deployment.serve(image)
        python_prediction = baselines.run_python(image, RequestContext())
        sagemaker_prediction = baselines.run_sagemaker(image, RequestContext())
        assert cloudburst_prediction["label"] == python_prediction["label"] == \
            sagemaker_prediction["label"]

    def test_lambda_actual_slower_than_mock(self):
        baselines = PredictionBaselines()
        image = make_image(side=256, seed=5)
        mock_ctx, actual_ctx = RequestContext(), RequestContext()
        baselines.run_lambda_mock(image, mock_ctx)
        baselines.run_lambda_actual(image, actual_ctx)
        assert actual_ctx.clock.now_ms > mock_ctx.clock.now_ms

    def test_repeated_serving_hits_model_cache(self):
        cluster = CloudburstCluster(executor_vms=1, seed=2)
        deployment = deploy_on_cloudburst(cluster)
        image = make_image(side=256, seed=1)
        deployment.serve(image)
        hit_rate_before = cluster.cache_hit_rate()
        for _ in range(3):
            deployment.serve(image)
        assert cluster.cache_hit_rate() >= hit_rate_before


class TestRetwis:
    @pytest.fixture
    def graph(self):
        return SocialWorkloadGenerator(user_count=40, followees_per_user=8,
                                       seed_tweet_count=120, seed=2).build_graph()

    def test_post_and_timeline_roundtrip(self, graph):
        cluster = CloudburstCluster(executor_vms=2, seed=3)
        app = RetwisOnCloudburst(cluster)
        app.load_graph(graph)
        author = graph.users[0]
        follower = graph.followers_of(author)[0]
        app.post_tweet(author, "hello world")
        timeline, latency = app.get_timeline(follower)
        texts = [tweet["text"] for tweet in timeline["tweets"]]
        assert "hello world" in texts
        assert latency > 0

    def test_replies_create_causal_dependencies(self, graph):
        cluster = CloudburstCluster(
            executor_vms=2, seed=4,
            consistency=ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL)
        app = RetwisOnCloudburst(cluster)
        app.load_graph(graph)
        author = graph.users[0]
        original, _ = app.post_tweet(author, "original post")
        reply, _ = app.post_tweet(graph.users[1], "reply!", reply_to=original["id"])
        assert reply["parent"] == original["id"]
        from repro.apps.retwis import tweet_key
        from repro.lattices import CausalLattice

        stored = cluster.kvs.background_get(tweet_key(reply["id"]))
        assert isinstance(stored, CausalLattice)
        assert tweet_key(original["id"]) in stored.dependencies

    def test_causal_mode_prevents_reply_without_original(self, graph):
        generator = SocialWorkloadGenerator(user_count=40, followees_per_user=8,
                                            seed_tweet_count=120, seed=6)
        stream = generator.request_stream(250)
        rates = {}
        for level in (ConsistencyLevel.LWW,
                      ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL):
            cluster = CloudburstCluster(
                executor_vms=3, seed=7, consistency=level,
                anna_propagation=AnnaCluster.PROPAGATE_PERIODIC)
            app = RetwisOnCloudburst(cluster, consistency=level)
            app.load_graph(graph)
            cluster.kvs.flush_updates()
            for index, request in enumerate(stream):
                app.execute(request)
                if (index + 1) % 40 == 0:
                    cluster.kvs.flush_updates()
            rates[level] = app.stats.anomaly_rate
        assert rates[ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL] <= \
            rates[ConsistencyLevel.LWW]

    def test_redis_baseline_serves_same_workload(self, graph):
        app = RetwisOnRedis()
        app.load_graph(graph)
        generator = SocialWorkloadGenerator(user_count=40, seed=8)
        for request in generator.request_stream(50):
            assert app.execute(request) > 0
        assert app.stats.requests == 50


class TestAggregation:
    def test_gossip_converges_to_the_mean(self):
        cluster = CloudburstCluster(executor_vms=4, seed=9)
        gossip = GossipAggregation(cluster, actor_count=10, seed=1)
        metrics = [float(i) for i in range(10)]
        result = gossip.run(metrics=metrics)
        assert result.relative_error <= 0.05
        assert result.rounds < 1000
        assert result.latency_ms > 0

    def test_gossip_rejects_bad_inputs(self):
        cluster = CloudburstCluster(executor_vms=1, seed=9)
        with pytest.raises(ValueError):
            GossipAggregation(cluster, actor_count=0)
        gossip = GossipAggregation(cluster, actor_count=3)
        with pytest.raises(ValueError):
            gossip.run(metrics=[1.0])

    def test_gather_backends_compute_exact_mean(self):
        cluster = CloudburstCluster(executor_vms=2, seed=10)
        metrics = [10.0, 20.0, 30.0, 40.0]
        for backend in (GatherAggregation.BACKEND_CLOUDBURST,
                        GatherAggregation.BACKEND_REDIS,
                        GatherAggregation.BACKEND_DYNAMODB,
                        GatherAggregation.BACKEND_S3):
            gather = GatherAggregation(backend, actor_count=4, cluster=cluster)
            result = gather.run(metrics=metrics)
            assert result.estimate == pytest.approx(25.0)

    def test_gossip_faster_than_lambda_gather_but_gather_on_cloudburst_fastest(self):
        cluster = CloudburstCluster(executor_vms=4, seed=11)
        gossip = GossipAggregation(cluster, actor_count=10, seed=2)
        cb_gather = GatherAggregation(GatherAggregation.BACKEND_CLOUDBURST,
                                      actor_count=10, cluster=cluster)
        s3_gather = GatherAggregation(GatherAggregation.BACKEND_S3, actor_count=10)
        gossip_latency = gossip.run().latency_ms
        cb_latency = cb_gather.run().latency_ms
        s3_latency = s3_gather.run().latency_ms
        assert cb_latency < gossip_latency < s3_latency
