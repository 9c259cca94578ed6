"""Small-scale runs of every experiment harness, asserting the paper's *shape*.

These are the same entry points the ``benchmarks/`` wrappers call at paper
scale; here they run with reduced parameters so the whole suite stays fast,
and the assertions check orderings ("who wins") rather than absolute numbers.
"""


from repro.bench import (
    run_caching_ablation,
    run_figure1,
    run_figure5,
    run_figure6,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10,
    run_figure11,
    run_figure12,
    run_hot_key_replication_ablation,
    run_messaging_ablation,
    run_scheduling_ablation,
    run_table2,
)
from repro.cloudburst.monitoring import MonitoringConfig


class TestFigure1Shape:
    def test_orderings(self):
        result = run_figure1(requests=40, seed=1)
        assert result.median("Cloudburst") < result.median("Lambda")
        assert result.median("Cloudburst") < result.median("SAND")
        assert result.median("Lambda") < result.median("Lambda + Dynamo")
        assert result.median("Lambda + Dynamo") < result.median("Lambda + S3")
        assert result.median("Lambda + S3") < result.median("Step Functions")
        # Cloudburst is comparable to Dask (within ~2x either way).
        assert 0.4 < result.speedup("Cloudburst", "Dask") < 3.0
        # And 1-3 orders of magnitude faster than Step Functions.
        assert result.speedup("Cloudburst", "Step Functions") > 20


class TestFigure5Shape:
    def test_hot_cache_beats_everything_and_s3_redis_crossover(self):
        sweep = run_figure5(requests_per_size=8, sizes=("8MB", "80MB"), seed=1)
        at_8mb = sweep.points["8MB"]
        assert at_8mb.median("Cloudburst (Hot)") < at_8mb.median("Cloudburst (Cold)")
        assert at_8mb.median("Cloudburst (Cold)") < at_8mb.median("Lambda (Redis)")
        assert at_8mb.median("Lambda (Redis)") < at_8mb.median("Lambda (S3)")
        assert at_8mb.speedup("Cloudburst (Hot)", "Lambda (Redis)") > 10
        at_80mb = sweep.points["80MB"]
        # At 80 MB the S3/Redis ordering flips (S3 is built for bandwidth).
        assert at_80mb.median("Lambda (S3)") < at_80mb.median("Lambda (Redis)")
        assert at_80mb.speedup("Cloudburst (Hot)", "Cloudburst (Cold)") > 4


class TestFigure6Shape:
    def test_gossip_and_gather_orderings(self):
        result = run_figure6(repetitions=8, seed=1)
        assert result.median("Cloudburst (gather)") < result.median("Cloudburst (gossip)")
        assert result.median("Cloudburst (gossip)") < result.median("Lambda+Dynamo (gather)")
        assert result.median("Lambda+Redis (gather)") < result.median("Lambda+S3 (gather)")
        assert result.speedup("Cloudburst (gather)", "Lambda+Redis (gather)") > 5


class TestFigure7Shape:
    def test_throughput_steps_and_drain(self):
        # Reduced scale, but the requests really run on the Cloudburst stack:
        # 6 threads and 12 closed-loop clients keep the pool saturated until
        # the monitoring policy brings more VMs online.
        experiment = run_figure7(
            initial_threads=6, client_count=12,
            load_duration_s=20.0, total_duration_s=30.0,
            policy_interval_ms=2_500.0,
            monitoring_config=MonitoringConfig(
                vms_per_scale_up=1, node_startup_delay_ms=5_000.0, max_vms=10),
            seed=1)
        sim = experiment.simulation
        # Initial plateau: ~6 threads / 54 ms ~ 111 requests/s.
        initial = experiment.throughput_at_minute(0.1)
        assert 80 < initial < 150
        # After scale-ups the peak clearly exceeds the initial plateau.
        assert experiment.peak_throughput_per_s > initial * 1.5
        # Capacity steps upward in VM batches and drains at the end.
        capacities = [capacity for _, capacity in sim.capacity_timeline]
        assert capacities[0] == 6
        assert max(capacities) >= 12
        assert capacities[-1] == 2
        assert experiment.index_overhead.tracked_keys > 0

    def test_seeded_run_is_deterministic(self):
        # The acceptance bar for the engine refactor: two invocations of the
        # same seeded experiment replay the identical event order.
        kwargs = dict(initial_threads=6, client_count=8,
                      load_duration_s=10.0, total_duration_s=15.0,
                      policy_interval_ms=2_500.0,
                      monitoring_config=MonitoringConfig(
                          vms_per_scale_up=1, node_startup_delay_ms=5_000.0,
                          max_vms=6),
                      seed=3)
        first = run_figure7(**kwargs)
        second = run_figure7(**kwargs)
        assert first.simulation.latencies.samples_ms == \
            second.simulation.latencies.samples_ms
        assert first.simulation.capacity_timeline == \
            second.simulation.capacity_timeline


class TestConsistencyExperiments:
    def test_figure8_median_uniform_tails_ordered(self):
        # Engine-driven: 4 concurrent session clients per level, update
        # propagation on a periodic virtual-time tick.
        result = run_figure8(requests_per_level=300, dag_count=25, populated_keys=400,
                             executor_vms=3, clients=4,
                             propagation_interval_ms=50.0, seed=1)
        summaries = result.comparison.summaries()
        medians = [s.median_ms for s in summaries.values()]
        assert max(medians) < 3 * min(medians)  # medians roughly uniform
        assert summaries["DSC"].p99_ms > summaries["LWW"].p99_ms
        assert summaries["MK"].p99_ms >= summaries["SK"].p99_ms * 0.8
        assert result.metadata_overhead["DSC"].p99_bytes >= \
            result.metadata_overhead["DSC"].median_bytes

    def test_table2_anomaly_counts_accrue_with_strictness(self):
        report = run_table2(executions=400, dag_count=25, populated_keys=200,
                            executor_vms=3, clients=8,
                            propagation_interval_ms=50.0, seed=1)
        assert report.invariant_violations() == []
        assert report.executions == 400

    def test_table2_one_client_agrees_qualitatively(self):
        # One closed-loop client (the sequential run): weaker contention —
        # the anomalies come from propagation staleness alone — but the same
        # qualitative ordering must hold.
        report = run_table2(executions=400, dag_count=25, populated_keys=200,
                            executor_vms=3, clients=1,
                            propagation_interval_ms=50.0, seed=1)
        assert report.invariant_violations() == []
        assert report.executions == 400

    def test_figure8_same_seed_replays(self):
        kwargs = dict(requests_per_level=60, dag_count=15, populated_keys=120,
                      executor_vms=3, seed=5)
        first = run_figure8(**kwargs)
        second = run_figure8(**kwargs)
        for label, recorder in first.comparison.recorders.items():
            assert second.comparison.recorders[label].samples_ms == \
                recorder.samples_ms, label
        assert first.metadata_overhead == second.metadata_overhead


class TestCaseStudies:
    def test_figure9_orderings(self):
        result = run_figure9(requests=8, seed=1, image_side=256)
        assert result.median("Python") <= result.median("Cloudburst")
        assert result.median("Cloudburst") < result.median("AWS Sagemaker")
        assert result.median("Cloudburst") < result.median("Lambda (Actual)")
        assert result.median("Lambda (Mock)") < result.median("Lambda (Actual)")
        # Cloudburst stays within a few tens of ms of native Python.
        assert result.speedup("Python", "Cloudburst") < 1.5

    def test_figure10_throughput_scales_with_threads(self):
        scaling = run_figure10(thread_counts=(12, 48), requests_per_point=200,
                               seed=1)
        # 4x the threads (and clients) -> close to 4x the throughput, with
        # flat median latency: the real pipeline on the engine-driven path.
        assert scaling.points[1].throughput_per_s > scaling.points[0].throughput_per_s * 2.5
        medians = [p.median_ms for p in scaling.points]
        assert max(medians) < 1.5 * min(medians)

    def test_figure11_orderings_and_anomalies(self):
        experiment = run_figure11(requests=250, user_count=120, seed_tweets=400,
                                  executor_vms=3, propagation_interval_ms=300.0, seed=1)
        comparison = experiment.comparison
        assert comparison.median("Redis") < comparison.median("Cloudburst (LWW)")
        assert comparison.median("Cloudburst (LWW)") <= \
            comparison.median("Cloudburst (Causal)") * 1.5
        assert experiment.anomaly_rate_causal < experiment.anomaly_rate_lww

    def test_figure12_throughput_scales_with_threads(self):
        scaling = run_figure12(thread_counts=(10, 40), requests_per_point=400,
                               seed=1, user_count=120, seed_tweets=400)
        assert scaling.points[1].throughput_per_s > scaling.points[0].throughput_per_s * 2.2


class TestAblations:
    def test_locality_scheduling_beats_random_placement(self):
        ablation = run_scheduling_ablation(requests=40, size_label="800KB",
                                           executor_vms=5, seed=1)
        assert ablation.hit_rate_locality > ablation.hit_rate_random
        assert ablation.comparison.median("Locality scheduling") <= \
            ablation.comparison.median("Random placement")

    def test_caches_reduce_latency(self):
        comparison = run_caching_ablation(requests=30, size_label="800KB", seed=1)
        assert comparison.median("Caches enabled") < comparison.median("Caches disabled")

    def test_backpressure_spreads_hot_keys(self):
        ablation = run_hot_key_replication_ablation(requests=120, executor_vms=5, seed=1)
        assert ablation.caches_with_hot_key_backpressure >= \
            ablation.caches_with_hot_key_no_backpressure

    def test_direct_messaging_faster_than_inbox(self):
        comparison = run_messaging_ablation(messages=60, seed=1)
        assert comparison.median("Direct TCP") < comparison.median("Anna inbox fallback")
