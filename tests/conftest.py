"""Shared fixtures for the test suite."""

import pytest

from repro import CloudburstCluster, ConsistencyLevel


@pytest.fixture
def cluster():
    """A small LWW-mode Cloudburst cluster."""
    return CloudburstCluster(executor_vms=2, threads_per_vm=3, anna_nodes=3,
                             seed=1234)


@pytest.fixture
def client(cluster):
    return cluster.connect()


@pytest.fixture
def causal_cluster():
    """A cluster running distributed-session causal consistency."""
    return CloudburstCluster(executor_vms=3, threads_per_vm=2, anna_nodes=3,
                             consistency=ConsistencyLevel.DISTRIBUTED_SESSION_CAUSAL,
                             seed=99)


@pytest.fixture
def causal_client(causal_cluster):
    return causal_cluster.connect()


@pytest.fixture
def saturate():
    """Occupy every thread of an executor VM from now on.

    Saturation is what the work queues say it is: one reservation per thread,
    the signal ``ExecutorVM.utilization`` and the published metrics read.
    """
    def saturate(vm, busy_ms: float = 60_000.0) -> None:
        now_ms = vm.engine.now_ms
        for thread in vm.threads:
            thread.work_queue.release(thread.work_queue.admit(now_ms) + busy_ms)

    return saturate
