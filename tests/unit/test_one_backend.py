"""One backend: the cluster owns its engine from construction (DESIGN.md DR-12).

Two pins.  Structural: the vocabulary of the deleted second backend must not
come back under ``src/``.  Behavioural: a cluster's engine outlives every
driver run on it — two runs separated by an idle gap both complete, both
gossip, and each reports from its own start.
"""

import re
from pathlib import Path

import pytest

from repro.bench.harness import EngineLoadDriver
from repro.cloudburst import CloudburstCluster
from repro.cloudburst.controlplane import ComputeControlPlane
from repro.sim import Engine

from internals import replicas_of

SRC = Path(__file__).resolve().parents[2] / "src"

#: What only existed to tell two backends apart.
FORBIDDEN = re.compile(
    r"attach_engine|detach_engine|engine is None|engine is not None"
    r"|driver ?== ?\"sequential\"|driver=\"sequential\"|flush_every")


class TestNoSecondBackend:
    def test_src_does_not_speak_of_a_second_backend(self):
        offenders = [
            f"{path.relative_to(SRC)}:{number}: {line.strip()}"
            for path in sorted(SRC.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if FORBIDDEN.search(line)]
        assert offenders == []

    def test_every_component_shares_the_clusters_engine(self):
        cluster = CloudburstCluster(executor_vms=2, scheduler_count=2, seed=1)
        engine = cluster.engine
        assert isinstance(engine, Engine)
        assert cluster.kvs.engine is engine
        assert all(vm.engine is engine for vm in cluster.vms)
        assert all(s.engine is engine for s in cluster.schedulers)
        assert cluster.add_vm().engine is engine
        driver = EngineLoadDriver(cluster, lambda cloud, ctx, index: None,
                                  max_requests=1)
        assert driver.engine is engine


def _write_cluster(seed=7):
    cluster = CloudburstCluster(executor_vms=2, threads_per_vm=2, seed=seed)
    cloud = cluster.connect("setup")

    def write(cloudburst, key, value):
        cloudburst.simulate_compute(10.0)
        cloudburst.put(key, value)
        return value

    cloud.register(write, name="write")
    return cluster


def _write_request(cloud, ctx, index):
    return cloud.call("write", [f"key-{index}", index], ctx=ctx)


class TestTwoRunsOnOneCluster:
    def test_both_complete_gossip_and_report_from_their_own_start(self, monkeypatch):
        cluster = _write_cluster()
        kvs, engine = cluster.kvs, cluster.engine
        runs = []
        for _ in range(2):
            # A control plane that publishes and aggregates but never acts.
            plane = ComputeControlPlane(cluster, policy_interval_ms=50.0)
            monkeypatch.setattr(plane, "decide", lambda now_ms, metrics: None)
            driver = EngineLoadDriver(
                cluster, _write_request, clients=3, max_requests=30,
                max_duration_ms=400.0, throughput_bucket_ms=50.0,
                control_plane=plane)
            runs.append((driver, driver.run(), driver.storage_report()))
            # Every request's write reached both replicas inside the run:
            # the round behind the last write fired, no drain loop needed.
            for index in range(30):
                copies = [kvs.node(owner).peek(f"key-{index}")
                          for owner in replicas_of(kvs, f"key-{index}")]
                assert len(copies) == 2 and copies[0] == copies[1]
            # An idle gap: nothing ticks through it (40 intervals long) —
            # at most the one round that was already armed fires, and pauses.
            rounds = kvs.gossip_rounds
            engine.run(until_ms=engine.now_ms + 1_000.0)
            assert kvs.gossip_rounds <= rounds + 1
            assert engine.stats()["pending"] == 0

        (first, first_sim, first_storage), (second, second_sim, second_storage) = runs
        assert second.started_ms >= first.started_ms + first_sim.duration_ms + 1_000.0
        for driver, sim, storage in runs:
            assert sim.completed_requests == 30
            assert driver.failed == 0
            # Everything a run reports counts from its own start.
            assert 0.0 < sim.duration_ms < 500.0
            assert sim.capacity_timeline[0] == (0.0, 4)
            assert sim.throughput_curve[0].time_s == 0.0  # bucket index 0
            assert sim.throughput_curve[0].requests_per_s > 0
            assert sum(point.requests_per_s * 0.05
                       for point in sim.throughput_curve) == pytest.approx(30)
            # The run's own gossip, not the cluster's lifetime total.
            assert storage["gossip_rounds"] > 0
            assert storage["gossip_key_exchanges"] >= 30
        assert first_storage["gossip_rounds"] + second_storage["gossip_rounds"] \
            <= kvs.gossip_rounds

    def test_a_second_run_replays_the_first_run_of_a_fresh_cluster_shifted(self):
        # Same requests, same seed: a run that starts late on a used cluster
        # differs from a fresh cluster's first run only by where it starts —
        # nothing time-indexed was left behind by the first run.
        def second_run_latencies(warm_up_runs):
            cluster = _write_cluster()
            for _ in range(warm_up_runs):
                EngineLoadDriver(cluster, lambda cloud, ctx, index: None,
                                 clients=1, max_requests=5).run()
                cluster.engine.run(until_ms=cluster.engine.now_ms + 777.0)
            driver = EngineLoadDriver(cluster, _write_request, clients=1,
                                      max_requests=12)
            return driver.run().latencies.samples_ms

        assert second_run_latencies(2) == pytest.approx(
            second_run_latencies(0), rel=1e-9)
