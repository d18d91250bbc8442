"""Unit tests for the Eq. 10 resource-efficiency metric."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import build_testbed_cluster
from repro.core import FunctionSpec, GreedyScheduler
from repro.core.efficiency import (
    FRAGMENTATION_FLOOR,
    resource_efficiency,
    rps_per_resource,
)


class TestRpsPerResource:
    def test_density_formula(self):
        assert rps_per_resource(100.0, 2, 30, beta=5.0) == pytest.approx(2.5)

    def test_zero_cost_rejected(self):
        with pytest.raises(ValueError):
            rps_per_resource(100.0, 0, 0)


class TestResourceEfficiency:
    def test_tighter_fill_scores_higher(self):
        # Same configuration, fuller server -> less fragmentation.
        loose = resource_efficiency(100.0, 2, 20, 16, 200, beta=1.0)
        tight = resource_efficiency(100.0, 2, 20, 4, 40, beta=1.0)
        assert tight > loose

    def test_higher_density_scores_higher(self):
        dense = resource_efficiency(200.0, 2, 20, 16, 200, beta=1.0)
        sparse = resource_efficiency(100.0, 2, 20, 16, 200, beta=1.0)
        assert dense > sparse

    def test_normaliser_caps_density_at_one(self):
        capped = resource_efficiency(
            1000.0, 2, 20, 16, 200, beta=1.0, normaliser=1.0
        )
        uncapped = resource_efficiency(
            1000.0, 2, 20, 16, 200, beta=1.0, normaliser=None
        )
        assert capped < uncapped

    def test_fragmentation_floor_bounds_packing_boost(self):
        # An exact fill must not diverge: the boost is bounded by
        # 1/floor (see DESIGN.md deviations).
        exact = resource_efficiency(1.0, 16, 200, 16, 200, beta=1.0, normaliser=None)
        density = 1.0 / (16 + 200)
        assert exact == pytest.approx(density / FRAGMENTATION_FLOOR)

    def test_oversized_instance_rejected(self):
        with pytest.raises(ValueError):
            resource_efficiency(10.0, 32, 300, 16, 200, beta=1.0)

    def test_zero_server_capacity_rejected(self):
        with pytest.raises(ValueError):
            resource_efficiency(10.0, 1, 0, 0, 0, beta=1.0)

    @given(
        r_up=st.floats(1.0, 1e4),
        cpu=st.integers(1, 8),
        gpu=st.integers(0, 100),
    )
    @settings(max_examples=80, deadline=None)
    def test_score_always_positive(self, r_up, cpu, gpu):
        score = resource_efficiency(r_up, cpu, gpu, 16, 200, beta=1.0)
        assert score > 0


class TestSchedulerAgreesWithReference:
    """``GreedyScheduler._select_placement`` inlines Eq. 10; this keeps
    :func:`resource_efficiency` as the reference it must agree with."""

    @given(
        model=st.sampled_from(("resnet-50", "mobilenet", "lstm-2365", "ssd")),
        preload=st.floats(0.0, 4000.0),
        residual=st.floats(5.0, 3000.0),
    )
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_pick_maximises_resource_efficiency(
        self, predictor, model, preload, residual
    ):
        """Algorithm 1's pick for each batch scores the maximum of Eq. 10
        over every (feasible configuration, server it fits) pair, bit
        for bit; no pick means no configuration fits any server."""
        cluster = build_testbed_cluster(num_servers=3)
        scheduler = GreedyScheduler(cluster, predictor)
        if preload:  # fragment the servers first
            scheduler.schedule(FunctionSpec.for_model("resnet-50", slo_s=0.2), preload)
        function = FunctionSpec.for_model(model, slo_s=0.2)
        scheduler._sorted_free()  # the index schedule() builds first
        beta = scheduler._efficiency_beta()
        for batch in (1, 4, 16):
            rows = scheduler.available_configs(function, batch, residual)
            pick = scheduler._select_placement(function, batch, residual)
            fits = [
                (config, bounds, server)
                for config, _t, bounds in rows
                for server in cluster.servers
                if server.can_fit(scheduler._instance_resources(function, config))
            ]
            if pick is None:
                assert fits == []
                continue
            normaliser = max(
                rps_per_resource(min(bounds.r_up, residual), config.cpu, config.gpu, beta)
                for config, _t, bounds in rows
            )

            def score(config, bounds, server):
                return resource_efficiency(
                    min(bounds.r_up, residual), config.cpu, config.gpu,
                    server.cpu_free, server.gpu_free,
                    beta=beta, normaliser=normaliser,
                )

            config, _t, bounds, server_id = pick
            best = max(score(*pair) for pair in fits)
            assert score(config, bounds, cluster.server(server_id)) == best
