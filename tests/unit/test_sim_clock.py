"""Unit tests for the virtual clock and request context."""

import pytest

from repro.sim import RequestContext, SimClock


class TestSimClock:
    def test_starts_at_zero_by_default(self):
        assert SimClock().now_ms == 0.0

    def test_starts_at_given_time(self):
        assert SimClock(25.5).now_ms == 25.5

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(10.0)
        clock.advance(2.5)
        assert clock.now_ms == pytest.approx(12.5)

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_advance_to_moves_forward_only(self):
        clock = SimClock(100.0)
        clock.advance_to(50.0)
        assert clock.now_ms == 100.0
        clock.advance_to(150.0)
        assert clock.now_ms == 150.0

    def test_copy_is_independent(self):
        clock = SimClock(5.0)
        other = clock.copy()
        other.advance(10.0)
        assert clock.now_ms == 5.0
        assert other.now_ms == 15.0


class TestRequestContext:
    def test_charge_advances_clock_and_records(self):
        ctx = RequestContext()
        ctx.charge("anna", "get", 1.5)
        ctx.charge("cache", "get", 0.2)
        assert ctx.clock.now_ms == pytest.approx(1.7)
        assert len(ctx.charges) == 2

    def test_charge_rejects_negative(self):
        with pytest.raises(ValueError):
            RequestContext().charge("anna", "get", -0.1)

    def test_charges_for_filters_by_service_and_operation(self):
        ctx = RequestContext()
        ctx.charge("anna", "get", 1.0)
        ctx.charge("anna", "put", 2.0)
        ctx.charge("cache", "get", 0.1)
        assert ctx.count("anna") == 2
        assert ctx.count("anna", "put") == 1
        assert ctx.total("anna") == pytest.approx(3.0)
        assert ctx.total("cache", "get") == pytest.approx(0.1)

    def test_breakdown_aggregates_by_service_operation(self):
        ctx = RequestContext()
        ctx.charge("anna", "get", 1.0)
        ctx.charge("anna", "get", 2.0)
        breakdown = ctx.breakdown()
        assert breakdown[("anna", "get")] == pytest.approx(3.0)

    def test_fork_shares_current_time_but_not_charges(self):
        ctx = RequestContext()
        ctx.charge("anna", "get", 5.0)
        branch = ctx.fork()
        assert branch.clock.now_ms == pytest.approx(5.0)
        assert branch.charges == []

    def test_fork_carries_the_prefetch_epoch(self):
        ctx = RequestContext()
        assert ctx.prefetch_epoch is None
        ctx.prefetch_epoch = "s/session-0/attempt-0"
        branch = ctx.fork()
        assert branch.prefetch_epoch == "s/session-0/attempt-0"
        # The branch owns its slot: a later prefetch on it never leaks back.
        branch.prefetch_epoch = "s/session-1/attempt-0"
        assert ctx.prefetch_epoch == "s/session-0/attempt-0"

    def test_join_advances_to_slowest_branch(self):
        ctx = RequestContext()
        ctx.charge("cloudburst", "schedule", 1.0)
        fast = ctx.fork()
        slow = ctx.fork()
        fast.charge("anna", "get", 1.0)
        slow.charge("anna", "get", 10.0)
        ctx.join([fast, slow])
        assert ctx.clock.now_ms == pytest.approx(11.0)
        # All branch charges are folded into the parent's log.
        assert ctx.count("anna", "get") == 2

    def test_join_with_no_branches_is_noop(self):
        ctx = RequestContext()
        ctx.charge("cloudburst", "schedule", 1.0)
        ctx.join([])
        assert ctx.clock.now_ms == pytest.approx(1.0)

    def test_clock_matches_charge_log(self):
        ctx = RequestContext()
        for index in range(50):
            ctx.charge("anna", "get", 0.1 * index)
            # The clock is the request's only running total; it must agree
            # with a re-sum of the itemised log at every step.
            assert ctx.clock.now_ms == pytest.approx(
                sum(charge.latency_ms for charge in ctx.charges))

    def test_charges_are_stamped_at_the_clock(self):
        ctx = RequestContext(clock=SimClock(100.0))
        ctx.clock.advance_to(120.0)
        ctx.charge("anna", "get", 5.0)
        ctx.charge("anna", "get", 5.0)
        assert [charge.at_ms for charge in ctx.charges] == [120.0, 125.0]
        assert ctx.clock.now_ms == 130.0


class TestRecordChargesOptOut:
    """record_charges=False: same timing, no itemised log (parity-pinned)."""

    def test_timing_identical_log_empty(self):
        logged = RequestContext(clock=SimClock(10.0))
        unlogged = RequestContext(clock=SimClock(10.0), record_charges=False)
        for ctx in (logged, unlogged):
            ctx.charge("anna", "get", 1.5)
            ctx.charge("cache", "get", 0.25)
        assert unlogged.clock.now_ms == logged.clock.now_ms
        assert unlogged.charges == []
        assert unlogged.count("anna") == 0
        assert unlogged.total("anna") == 0.0
        assert unlogged.breakdown() == {}

    def test_negative_charge_still_rejected(self):
        ctx = RequestContext(record_charges=False)
        with pytest.raises(ValueError):
            ctx.charge("anna", "get", -0.1)

    def test_fork_propagates_opt_out(self):
        ctx = RequestContext(record_charges=False)
        ctx.charge("cloudburst", "schedule", 1.0)
        branch = ctx.fork()
        assert branch.record_charges is False
        branch.charge("anna", "get", 2.0)
        assert branch.charges == []

    def test_join_of_unlogged_branches_moves_the_clock(self):
        ctx = RequestContext(record_charges=False)
        ctx.charge("cloudburst", "schedule", 1.0)
        fast, slow = ctx.fork(), ctx.fork()
        fast.charge("anna", "get", 1.0)
        slow.charge("anna", "get", 10.0)
        ctx.join([fast, slow])
        assert ctx.clock.now_ms == pytest.approx(11.0)
        assert ctx.charges == []
