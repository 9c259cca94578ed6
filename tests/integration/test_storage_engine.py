"""Integration tests for the storage tier under the figures (5, 6, 7).

The Figure 5/6 harnesses run through queueing storage nodes; a plain
top-level loop of their request functions and a one-client driver run are
the same closed loop (the Figure 5 half of that pin lives in
``test_engine_determinism.py``, the §6.2 half in
``test_concurrent_sessions.py``), and every harness replays for a seed.
"""

import pytest

from repro.apps.gossip import GatherAggregation, GossipAggregation
from repro.bench import run_figure5, run_figure6, run_figure7
from repro.cloudburst import CloudburstCluster
from repro.cloudburst.controlplane import MonitoringConfig

from one_client import one_client_driver_latencies, top_level_latencies


class TestFigure5Driver:
    def test_same_seed_replays(self):
        kwargs = dict(requests_per_size=6, sizes=("800KB",), seed=3, clients=3)
        assert run_figure5(**kwargs) == run_figure5(**kwargs)

    def test_concurrent_clients_still_satisfy_paper_ordering(self):
        sweep = run_figure5(requests_per_size=8, sizes=("8MB",), seed=1, clients=4)
        median = {system: stats["median_ms"] for system, stats
                  in sweep["figure5_locality"]["sizes"]["8MB"].items()}
        assert median["Cloudburst (Hot)"] < median["Cloudburst (Cold)"]
        assert median["Cloudburst (Cold)"] < median["Lambda (Redis)"]


def _figure6_workload(algorithm, seed=2):
    """The Figure 6 Cloudburst side: ``(cluster, gossip or gather request fn)``."""
    cluster = CloudburstCluster(executor_vms=4, seed=seed)
    if algorithm == "gossip":
        aggregation = GossipAggregation(cluster, actor_count=10, seed=seed)
    else:
        aggregation = GatherAggregation(GatherAggregation.BACKEND_CLOUDBURST,
                                        actor_count=10, cluster=cluster,
                                        seed=seed)

    def request(_cloud, ctx, _index):
        aggregation.run(ctx=ctx)

    return cluster, request


class TestFigure6Driver:
    @pytest.mark.parametrize("algorithm", ["gossip", "gather"])
    def test_top_level_loop_matches_one_client_driver(self, algorithm):
        top_level = top_level_latencies(*_figure6_workload(algorithm), 6)
        driven = one_client_driver_latencies(*_figure6_workload(algorithm), 6)
        assert driven == pytest.approx(top_level, rel=1e-9)

    def test_same_seed_replays(self):
        assert run_figure6(repetitions=6, seed=2) == run_figure6(repetitions=6, seed=2)

    def test_lambda_baselines_do_not_depend_on_the_client_count(self):
        # The simulated Lambda gathers never touch the cluster; the number of
        # Cloudburst clients must not change their numbers at all.
        one = run_figure6(repetitions=5, seed=4, clients=1)["figure6_aggregation"]
        two = run_figure6(repetitions=5, seed=4, clients=2)["figure6_aggregation"]
        for label in ("Lambda+Redis (gather)", "Lambda+Dynamo (gather)",
                      "Lambda+S3 (gather)"):
            assert two["systems"][label] == one["systems"][label]


class TestFigure7StorageTier:
    def test_storage_autoscaler_ticks_on_the_shared_timeline(self):
        section = run_figure7(
            initial_threads=6, client_count=12,
            load_duration_s=10.0, total_duration_s=15.0,
            policy_interval_ms=2_500.0,
            monitoring_config=MonitoringConfig(
                vms_per_scale_up=1, node_startup_delay_ms=5_000.0, max_vms=6),
            seed=1)["figure7_autoscaling"]
        # One (ms since the run started, nodes) entry per storage tick: the
        # policy really evaluated on virtual time while load was running,
        # reported from the start of the run like everything the run reports.
        ticks = [at_ms for at_ms, _count in section["storage_node_timeline"]]
        assert len(ticks) >= 2
        assert ticks == sorted(ticks)
        assert ticks[0] == 2_500.0
