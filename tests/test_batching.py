"""Unit tests for Eq. 1 rate bounds and the per-instance batch queue."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batching import (
    BatchQueue,
    InfeasibleBatchError,
    RateBounds,
    rate_bounds,
)


class TestRateBounds:
    def test_paper_worked_example(self):
        """t_slo=200ms, t_exec=50ms, b=4 -> [28, 80] RPS (section 3.2)."""
        bounds = rate_bounds(t_exec=0.05, t_slo=0.2, batch=4)
        assert bounds.r_low == 28.0
        assert bounds.r_up == 80.0

    def test_batch_one_has_zero_lower_bound(self):
        bounds = rate_bounds(t_exec=0.05, t_slo=0.2, batch=1)
        assert bounds.r_low == 0.0
        assert bounds.r_up == 20.0

    def test_batch_one_only_needs_slo(self):
        # For b=1 only t_exec <= t_slo matters (Algorithm 1 lines 20-22).
        bounds = rate_bounds(t_exec=0.15, t_slo=0.2, batch=1)
        assert bounds.r_up == pytest.approx(1 / 0.15)

    def test_batch_one_over_slo_infeasible(self):
        with pytest.raises(InfeasibleBatchError):
            rate_bounds(t_exec=0.25, t_slo=0.2, batch=1)

    def test_half_slo_rule_for_batches(self):
        with pytest.raises(InfeasibleBatchError):
            rate_bounds(t_exec=0.11, t_slo=0.2, batch=4)

    def test_exactly_half_slo_feasible(self):
        bounds = rate_bounds(t_exec=0.1, t_slo=0.2, batch=4)
        assert bounds.r_low <= bounds.r_up

    def test_zero_exec_time_rejected(self):
        with pytest.raises(ValueError):
            rate_bounds(t_exec=0.0, t_slo=0.2, batch=4)

    def test_zero_batch_rejected(self):
        with pytest.raises(ValueError):
            rate_bounds(t_exec=0.05, t_slo=0.2, batch=0)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            RateBounds(r_low=-1.0, r_up=10.0)

    def test_slow_batches_keep_positive_capacity(self):
        """Regression: ``t_exec >= 1s`` used to floor ``r_up`` to zero.

        A zero-capacity instance never reduces the scheduler's residual
        load, so GreedyScheduler.schedule would fill the whole cluster
        with useless instances.  The un-floored per-second rate keeps
        every feasible configuration's capacity positive.
        """
        bounds = rate_bounds(t_exec=1.5, t_slo=4.0, batch=4)
        assert bounds.r_up > 0.0
        assert bounds.r_low <= bounds.r_up
        assert bounds.r_up == pytest.approx(4 / 1.5)

    def test_slow_single_request_keeps_positive_capacity(self):
        bounds = rate_bounds(t_exec=1.5, t_slo=4.0, batch=1)
        assert bounds.r_up == pytest.approx(1 / 1.5)
        assert bounds.r_up > 0.0

    @given(
        t_exec=st.floats(0.001, 0.099),
        batch=st.sampled_from([2, 4, 8, 16, 32]),
    )
    @settings(max_examples=100, deadline=None)
    def test_low_never_exceeds_up_when_feasible(self, t_exec, batch):
        bounds = rate_bounds(t_exec=t_exec, t_slo=0.2, batch=batch)
        assert bounds.r_low <= bounds.r_up

    @given(
        t_exec=st.floats(0.01, 10.0),
        slack=st.floats(1.0, 4.0),
        batch=st.sampled_from([1, 2, 4, 8, 16]),
    )
    @settings(max_examples=100, deadline=None)
    def test_feasible_configs_always_have_positive_capacity(
        self, t_exec, slack, batch
    ):
        """Any (t_exec, t_slo, b) that passes feasibility has r_up > 0."""
        bounds = rate_bounds(t_exec=t_exec, t_slo=t_exec * 2 * slack, batch=batch)
        assert bounds.r_up > 0.0
        assert bounds.r_low <= bounds.r_up

    @given(batch=st.sampled_from([1, 2, 4, 8]))
    def test_bounds_scale_with_batch(self, batch):
        bounds = rate_bounds(t_exec=0.02, t_slo=0.2, batch=batch)
        assert bounds.r_up == pytest.approx(50 * batch)


class _Req:
    def __init__(self, arrival):
        self.arrival = arrival


class TestBatchQueue:
    def test_enqueue_reports_full(self):
        queue = BatchQueue(batch_size=2, timeout_s=1.0)
        assert not queue.enqueue(_Req(0.0), now=0.0)
        assert queue.enqueue(_Req(0.1), now=0.1)

    def test_deadline_from_oldest_request(self):
        queue = BatchQueue(batch_size=4, timeout_s=1.0)
        queue.enqueue(_Req(5.0), now=5.0)
        queue.enqueue(_Req(5.5), now=5.5)
        assert queue.deadline() == pytest.approx(6.0)

    def test_empty_queue_has_no_deadline(self):
        assert BatchQueue(batch_size=2, timeout_s=1.0).deadline() is None

    def test_should_flush_when_full(self):
        queue = BatchQueue(batch_size=2, timeout_s=10.0)
        queue.enqueue(_Req(0.0), now=0.0)
        queue.enqueue(_Req(0.1), now=0.1)
        assert queue.should_flush(now=0.1)

    def test_should_flush_on_timeout(self):
        queue = BatchQueue(batch_size=8, timeout_s=1.0)
        queue.enqueue(_Req(0.0), now=0.0)
        assert not queue.should_flush(now=0.5)
        assert queue.should_flush(now=1.0)

    def test_empty_queue_never_flushes(self):
        assert not BatchQueue(batch_size=2, timeout_s=1.0).should_flush(now=100.0)

    def test_drain_returns_fifo_prefix(self):
        queue = BatchQueue(batch_size=2, timeout_s=1.0)
        reqs = [_Req(float(i)) for i in range(3)]
        for req in reqs:
            queue.enqueue(req, now=req.arrival)
        drained = queue.drain()
        assert drained == reqs[:2]
        assert len(queue) == 1

    def test_drain_restamps_oldest_from_remaining_head(self):
        queue = BatchQueue(batch_size=2, timeout_s=1.0)
        for arrival in (0.0, 0.2, 0.7):
            queue.enqueue(_Req(arrival), now=arrival)
        queue.drain()
        assert queue.deadline() == pytest.approx(1.7)

    def test_drain_fallback_uses_drain_time_not_previous_batch(self):
        """Regression: back-to-back batches of arrival-less payloads.

        When the new head-of-queue object carries no ``arrival``
        attribute, the timeout clock used to keep the *previous*
        batch's oldest arrival, making the next deadline spuriously
        early (often already in the past).  It must restart from the
        drain time instead.
        """
        queue = BatchQueue(batch_size=2, timeout_s=1.0)
        queue.enqueue(object(), now=0.0)
        queue.enqueue(object(), now=0.0)
        queue.enqueue(object(), now=5.0)
        queue.drain(now=5.0)
        assert queue.deadline() == pytest.approx(6.0)
        assert queue.should_flush(now=6.0)
        assert not queue.should_flush(now=5.5)

    def test_back_to_back_batches_restart_clock_from_head_arrival(self):
        """Full batch drains; the very next batch's deadline must come
        from the new head's own arrival, not the drained batch's."""
        queue = BatchQueue(batch_size=2, timeout_s=1.0)
        for arrival in (0.0, 0.1, 0.9):
            queue.enqueue(_Req(arrival), now=arrival)
        queue.drain(now=0.1)
        assert queue.deadline() == pytest.approx(1.9)

    def test_drain_empties_clock(self):
        queue = BatchQueue(batch_size=4, timeout_s=1.0)
        queue.enqueue(_Req(0.0), now=0.0)
        queue.drain()
        assert queue.is_empty
        assert queue.deadline() is None

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            BatchQueue(batch_size=0, timeout_s=1.0)

    def test_negative_timeout(self):
        with pytest.raises(ValueError):
            BatchQueue(batch_size=1, timeout_s=-0.1)

    @given(
        arrivals=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30),
        batch=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_drain_conserves_requests(self, arrivals, batch):
        queue = BatchQueue(batch_size=batch, timeout_s=1.0)
        for arrival in sorted(arrivals):
            queue.enqueue(_Req(arrival), now=arrival)
        drained = []
        while not queue.is_empty:
            chunk = queue.drain()
            assert 0 < len(chunk) <= batch
            drained.extend(chunk)
        assert len(drained) == len(arrivals)
