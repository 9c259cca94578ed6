"""Determinism and parity pins for the optimized discrete-event engine.

The engine optimization pass (tuple-keyed heap, O(1) pending counters,
tombstone compaction, heap-based FIFO server selection, allocation-light
charge accounting) must be *observationally invisible*: same event order,
same latency samples, same event counts.  These tests pin that:

* a seeded engine-driver run replays identically (event-for-event and
  sample-for-sample) across two fresh clusters;
* the Figure 5 hot and cold request functions cost the same from a plain
  top-level loop as from a one-client driver run, and ``run_figure5`` replays
  for a seed;
* ``record_charges=False`` (the load drivers' allocation-light mode) changes
  no latency sample and no engine event count — only the itemised charge log.
"""

import pytest

from repro.bench import run_figure5
from repro.bench.harness import EngineLoadDriver
from repro.cloudburst import CloudburstCluster, CloudburstReference
from repro.workloads.arrays import (LocalityWorkloadKeys, make_arrays,
                                    sum_arrays_with_library)

from one_client import one_client_driver_latencies, top_level_latencies


def _cluster(seed=11):
    cluster = CloudburstCluster(executor_vms=3, threads_per_vm=2, seed=seed)
    cloud = cluster.connect()
    cloud.put("shared", 0)

    def bump(cloudburst, key, index):
        value = cloudburst.get(key)
        cloudburst.put(key, index)
        return value

    cloud.register(bump, name="bump")
    return cluster


def _drive(seed=11, record_charges=True, clients=4, requests=48):
    cluster = _cluster(seed=seed)

    def request(cloud, ctx, index):
        return cloud.call("bump", ["shared", index], ctx=ctx)

    driver = EngineLoadDriver(cluster, request, clients=clients,
                              max_requests=requests,
                              record_charges=record_charges)
    result = driver.run()
    return result, driver.engine


class TestSeededReplay:
    def test_same_seed_replays_sample_for_sample(self):
        first, first_engine = _drive(seed=11)
        second, second_engine = _drive(seed=11)
        assert first.latencies.samples_ms == second.latencies.samples_ms
        assert first_engine.events_processed == second_engine.events_processed
        assert first_engine.now_ms == second_engine.now_ms

    def test_different_seed_actually_differs(self):
        # Guard against the replay test passing vacuously (e.g. everything
        # collapsing to constant latencies).
        first, _ = _drive(seed=11)
        second, _ = _drive(seed=12)
        assert first.latencies.samples_ms  # non-empty
        assert first.latencies.samples_ms != second.latencies.samples_ms


def _figure5_workload(temperature, size="8MB", seed=3):
    """The Figure 5 Cloudburst side: ``(cluster, hot or cold request fn)``."""
    keys = LocalityWorkloadKeys.shared(size)
    cluster = CloudburstCluster(executor_vms=7, seed=seed)
    cloud = cluster.connect()
    for key, array in zip(keys.keys, make_arrays(size, seed=seed)):
        cloud.put(key, array)
    cloud.register(sum_arrays_with_library, name="sum_arrays")
    references = [CloudburstReference(key) for key in keys.keys]
    cloud.call("sum_arrays", references)  # warm one cache

    def request(cloud_client, ctx, _index):
        if temperature == "cold":
            for vm in cluster.vms:
                vm.cache.clear()
        return cloud_client.call("sum_arrays", references, ctx=ctx)

    return cluster, request


class TestFigure5Parity:
    @pytest.mark.parametrize("temperature", ["hot", "cold"])
    def test_top_level_loop_matches_one_client_driver(self, temperature):
        # One client and no concurrency: a plain loop of calls on the
        # cluster's clock and a one-client driver run are the same closed
        # loop, sample for sample.
        top_level = top_level_latencies(*_figure5_workload(temperature), 6)
        driven = one_client_driver_latencies(*_figure5_workload(temperature), 6)
        assert driven == pytest.approx(top_level, rel=1e-9)

    def test_same_seed_replays_every_system(self):
        kwargs = dict(requests_per_size=6, sizes=("8MB",), seed=3)
        assert run_figure5(**kwargs) == run_figure5(**kwargs)


class TestChargeLogOptOutParity:
    def test_unlogged_run_is_sample_identical(self):
        logged, logged_engine = _drive(seed=11, record_charges=True)
        unlogged, unlogged_engine = _drive(seed=11, record_charges=False)
        assert unlogged.latencies.samples_ms == \
            pytest.approx(logged.latencies.samples_ms)
        assert unlogged_engine.events_processed == logged_engine.events_processed
        assert unlogged_engine.now_ms == logged_engine.now_ms
