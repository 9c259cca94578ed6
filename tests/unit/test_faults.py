"""Unit tests for the fault plane's construction and seeded schedules.

The key property (a satellite of the fault-plane PR): every fault class draws
its schedule from its own ``rng.spawn("fault-plane/<class>")`` namespace, so
a seed pins each class's sample stream independently of which other classes
are enabled — the schedules replay sample-for-sample across processes.
"""

import pytest

from repro.sim import (DEFAULT_FAULT_CLASSES, Engine, FaultEvent, FaultPlane,
                       RandomSource)


class _ClusterStub:
    """FaultPlane takes the cluster's engine and otherwise only touches the
    cluster when injecting; construction and schedule-drawing never do."""

    def __init__(self):
        self.engine = Engine()


def _plane(seed, **kwargs):
    return FaultPlane(_ClusterStub(), RandomSource(seed).spawn("fault-plane"),
                      **kwargs)


class TestConstruction:
    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            _plane(1, classes=("executor_kill", "power_outage"))

    def test_nonpositive_intervals_rejected(self):
        with pytest.raises(ValueError):
            _plane(1, mean_interval_ms=0.0)
        with pytest.raises(ValueError):
            _plane(1, downtime_ms=-1.0)
        with pytest.raises(ValueError):
            _plane(1, tick_interval_ms=0.0)

    def test_default_covers_all_four_tiers(self):
        assert set(DEFAULT_FAULT_CLASSES) == {
            "executor_kill", "storage_drop", "gossip_partition",
            "scheduler_crash"}
        assert set(_plane(1)._classes) == set(DEFAULT_FAULT_CLASSES)

    def test_recovery_bound_covers_downtime_plus_tick(self):
        plane = _plane(1, downtime_ms=100.0, tick_interval_ms=10.0)
        assert plane.recovery_bound_ms == 110.0


class TestPerClassSeededSchedules:
    def _draws(self, plane, name, count=8):
        return [plane._classes[name].rng.exponential(100.0)
                for _ in range(count)]

    def test_same_seed_replays_each_class_stream(self):
        first, second = _plane(13), _plane(13)
        for name in DEFAULT_FAULT_CLASSES:
            assert self._draws(first, name) == self._draws(second, name)

    def test_streams_differ_between_classes(self):
        plane = _plane(13)
        draws = {name: self._draws(plane, name)
                 for name in DEFAULT_FAULT_CLASSES}
        values = list(draws.values())
        assert all(a != b for i, a in enumerate(values)
                   for b in values[i + 1:])

    def test_class_stream_independent_of_enabled_set(self):
        # Disabling other classes must not shift a class's samples: the
        # namespace, not the draw order across classes, owns the stream.
        alone = _plane(13, classes=("scheduler_crash",))
        together = _plane(13)
        assert self._draws(alone, "scheduler_crash") == \
            self._draws(together, "scheduler_crash")

    def test_different_seed_differs(self):
        assert self._draws(_plane(13), "executor_kill") != \
            self._draws(_plane(14), "executor_kill")


class TestReporting:
    def test_empty_snapshot_shape(self):
        plane = _plane(5)
        snapshot = plane.snapshot()
        assert snapshot["injected"] == snapshot["recovered"] == 0
        assert snapshot["max_recovery_ms"] == 0.0
        assert set(snapshot["classes"]) == set(DEFAULT_FAULT_CLASSES)
        assert snapshot["timeline"] == []
        assert plane.timeline_signature() == ()

    def test_fault_event_to_dict(self):
        event = FaultEvent(12.5, "executor_kill", "inject", "vm-3")
        assert event.to_dict() == {"at_ms": 12.5, "fault": "executor_kill",
                                   "action": "inject", "target": "vm-3"}

    def test_double_start_rejected(self):
        plane = _plane(5)
        plane.start()
        with pytest.raises(RuntimeError):
            plane.start()
        plane.stop()
        plane.start()  # starting again after stop is fine
        plane.stop()

    def test_timeline_counts_from_the_start_of_the_plane(self):
        plane = _plane(5)
        plane.engine.run(until_ms=250.0)
        plane.start()
        assert plane.started_ms == 250.0
        fault = plane._classes["executor_kill"]
        fault.outstanding = ("vm-0", plane.engine.now_ms, lambda: None)
        plane.engine.run(until_ms=262.5)
        plane.stop()  # force-recovers the outstanding fault
        assert plane.timeline == [
            FaultEvent(12.5, "executor_kill", "recover", "vm-0")]
