"""Unit tests for Algorithm 1 (the greedy scheduler)."""

import pytest

from repro.cluster import build_testbed_cluster
from repro.cluster.resources import ResourceVector
from repro.core import FunctionSpec, GreedyScheduler
from repro.core.scheduler import SchedulingError
from repro.workflows import CoPlacementHint, WorkflowSpec, WorkflowStage


@pytest.fixture()
def scheduler(cluster, predictor):
    return GreedyScheduler(cluster, predictor)


@pytest.fixture()
def resnet_fn():
    return FunctionSpec.for_model("resnet-50", slo_s=0.2)


class TestAvailableConfig:
    def test_configs_meet_slo_constraints(self, scheduler, resnet_fn):
        for config, t_exec, bounds in scheduler.available_configs(
            resnet_fn, batch=8, residual_rps=1e6
        ):
            assert t_exec <= resnet_fn.slo_s / 2
            assert bounds.r_low <= bounds.r_up

    def test_batch_one_only_needs_full_slo(self, scheduler, resnet_fn):
        rows = scheduler.available_configs(resnet_fn, batch=1, residual_rps=1e6)
        assert rows
        for _config, t_exec, _bounds in rows:
            assert t_exec <= resnet_fn.slo_s

    def test_low_residual_filters_large_batches(self, scheduler, resnet_fn):
        plenty = scheduler.available_configs(resnet_fn, batch=32, residual_rps=1e6)
        scarce = scheduler.available_configs(resnet_fn, batch=32, residual_rps=10.0)
        assert len(scarce) < len(plenty)

    def test_results_cached_per_function_batch(self, scheduler, resnet_fn):
        scheduler.available_configs(resnet_fn, batch=8, residual_rps=100.0)
        key = (resnet_fn.model.name, resnet_fn.slo_s, 8)
        assert key in scheduler._config_cache

    def test_rows_shared_across_function_names(self, scheduler, resnet_fn):
        twin = FunctionSpec(
            name="other-resnet", model=resnet_fn.model, slo_s=resnet_fn.slo_s
        )
        scheduler.available_configs(resnet_fn, batch=8, residual_rps=100.0)
        rows = scheduler._config_cache[(resnet_fn.model.name, 0.2, 8)]
        assert scheduler.available_configs(
            twin, batch=8, residual_rps=100.0
        ) == scheduler.available_configs(resnet_fn, batch=8, residual_rps=100.0)
        assert len(scheduler._config_cache) == 1
        assert scheduler._config_cache[(twin.model.name, 0.2, 8)] is rows
        looser = FunctionSpec(
            name=resnet_fn.name, model=resnet_fn.model, slo_s=0.4
        )
        scheduler.available_configs(looser, batch=8, residual_rps=100.0)
        assert scheduler._config_cache[(resnet_fn.model.name, 0.4, 8)] is not rows
        assert len(scheduler._config_cache) == 2


class TestSchedule:
    def test_covers_residual_when_space_allows(self, scheduler, resnet_fn):
        outcome = scheduler.schedule(resnet_fn, residual_rps=500.0)
        assert outcome.leftover_rps == 0.0
        assert outcome.placed_capacity >= 500.0

    def test_instances_are_placed_on_cluster(self, scheduler, resnet_fn):
        outcome = scheduler.schedule(resnet_fn, residual_rps=500.0)
        for instance in outcome.instances:
            assert instance.placement is not None
        assert scheduler.cluster.weighted_used() > 0

    def test_zero_residual_places_nothing(self, scheduler, resnet_fn):
        outcome = scheduler.schedule(resnet_fn, residual_rps=0.0)
        assert not outcome.instances

    def test_negative_residual_rejected(self, scheduler, resnet_fn):
        with pytest.raises(ValueError):
            scheduler.schedule(resnet_fn, residual_rps=-1.0)

    def test_prefers_largest_feasible_batch_under_stress(self, scheduler, resnet_fn):
        outcome = scheduler.schedule(resnet_fn, 2000.0)
        assert max(inst.config.batch for inst in outcome.instances) == 32

    def test_small_load_uses_small_batches(self, scheduler, resnet_fn):
        # With 10 RPS a batch-32 instance can never saturate (r_low
        # gating), so the scheduler must fall to smaller batches.
        outcome = scheduler.schedule(resnet_fn, residual_rps=10.0)
        assert outcome.instances
        assert all(
            inst.config.batch == 1 or inst.r_low <= 10.0
            for inst in outcome.instances
        )

    def test_max_instances_bound(self, scheduler, resnet_fn):
        outcome = scheduler.schedule(resnet_fn, 1e9, max_instances=3)
        assert len(outcome.instances) == 3

    def test_partial_fill_reports_leftover(self, scheduler, resnet_fn):
        outcome = scheduler.schedule(resnet_fn, 1e9)
        assert outcome.leftover_rps > 0  # cluster is finite
        assert outcome.placed_capacity > 0

    def test_allow_partial_false_raises_when_full(self, scheduler, resnet_fn):
        scheduler.schedule(resnet_fn, 1e9)  # fill the cluster
        with pytest.raises(SchedulingError):
            scheduler.schedule(resnet_fn, 1e6, allow_partial=False)

    def test_release_returns_resources(self, scheduler, resnet_fn):
        outcome = scheduler.schedule(resnet_fn, 500.0)
        for instance in outcome.instances:
            scheduler.release(instance)
        assert scheduler.cluster.total_used.is_zero()

    def test_release_is_idempotent_on_placement(self, scheduler, resnet_fn):
        outcome = scheduler.schedule(resnet_fn, 300.0)
        instance = outcome.instances[0]
        scheduler.release(instance)
        scheduler.release(instance)  # second call is a no-op
        assert instance.placement is None

    def test_respects_model_max_batch(self, scheduler):
        bert = FunctionSpec.for_model("bert-v1", slo_s=0.4)
        outcome = scheduler.schedule(bert, 500.0)
        assert all(
            inst.config.batch <= bert.model.max_batch
            for inst in outcome.instances
        )

    def test_tight_slo_still_schedulable_for_small_model(self, scheduler):
        fn = FunctionSpec.for_model("mnist", slo_s=0.02)
        outcome = scheduler.schedule(fn, 100.0)
        assert outcome.leftover_rps == 0.0


class TestConfigCacheKey:
    """Regression: the cache key was (name, batch), so two specs that
    share a name (ablation sweeps reuse schedulers) silently reused
    each other's feasibility rows and rate bounds."""

    def test_cache_distinguishes_slo(self, cluster, predictor):
        scheduler = GreedyScheduler(cluster, predictor)
        loose = FunctionSpec.for_model("resnet-50", slo_s=0.4, name="shared")
        tight = FunctionSpec.for_model("resnet-50", slo_s=0.05, name="shared")
        scheduler.available_configs(loose, batch=8, residual_rps=1e6)
        rows = scheduler.available_configs(tight, batch=8, residual_rps=1e6)
        for _config, t_exec, _bounds in rows:
            assert t_exec <= tight.slo_s / 2

    def test_cache_distinguishes_model(self, cluster, predictor):
        scheduler = GreedyScheduler(cluster, predictor)
        heavy = FunctionSpec.for_model("resnet-50", slo_s=0.2, name="shared")
        light = FunctionSpec.for_model("mnist", slo_s=0.2, name="shared")
        scheduler.available_configs(heavy, batch=8, residual_rps=1e6)
        rows = scheduler.available_configs(light, batch=8, residual_rps=1e6)
        fresh = GreedyScheduler(cluster, predictor).available_configs(
            light, batch=8, residual_rps=1e6
        )
        assert [(c, t) for c, t, _b in rows] == [(c, t) for c, t, _b in fresh]

    def test_cached_bounds_match_own_slo(self, cluster, predictor):
        from repro.core.batching import rate_bounds

        scheduler = GreedyScheduler(cluster, predictor)
        first = FunctionSpec.for_model("resnet-50", slo_s=0.4, name="shared")
        second = FunctionSpec.for_model("resnet-50", slo_s=0.2, name="shared")
        scheduler.available_configs(first, batch=4, residual_rps=1e6)
        for _config, t_exec, bounds in scheduler.available_configs(
            second, batch=4, residual_rps=1e6
        ):
            expected = rate_bounds(t_exec, second.slo_s, 4)
            assert bounds.r_up == pytest.approx(expected.r_up)
            assert bounds.r_low == pytest.approx(expected.r_low)


class TestDynamicBetaIndexConsistency:
    """Regression: the best-fit server index was keyed with the static
    ``cluster.beta`` while e_ij scoring used the dynamic beta, so the
    best-fit shortcut no longer returned the argmax server."""

    def _skew_free_ratio(self, cluster):
        # Consume CPU-only capacity so free_gpu / free_cpu diverges
        # from the static capacity ratio the cluster was built with.
        from repro.cluster.resources import ResourceVector

        cluster.allocate(0, ResourceVector(cpu=12, memory_mb=1024))
        cluster.allocate(1, ResourceVector(cpu=8, gpu=60, memory_mb=1024))

    def test_free_index_keyed_with_efficiency_beta(self, cluster, predictor):
        scheduler = GreedyScheduler(cluster, predictor, dynamic_beta=True)
        self._skew_free_ratio(cluster)
        beta = scheduler._efficiency_beta()
        assert beta != pytest.approx(cluster.beta)
        index = scheduler._sorted_free()
        expected = sorted(
            (server.weighted_free(beta), server.server_id)
            for server in cluster.servers
        )
        assert index == pytest.approx(expected)

    def test_index_rekeyed_after_placements_change_beta(
        self, cluster, predictor
    ):
        scheduler = GreedyScheduler(cluster, predictor, dynamic_beta=True)
        self._skew_free_ratio(cluster)
        fn = FunctionSpec.for_model("resnet-50", slo_s=0.2)
        scheduler.schedule(fn, residual_rps=400.0)
        beta = scheduler._efficiency_beta()
        index = scheduler._sorted_free()
        expected = sorted(
            (server.weighted_free(beta), server.server_id)
            for server in cluster.servers
        )
        assert index == pytest.approx(expected)

    def test_static_beta_index_unchanged(self, cluster, predictor):
        scheduler = GreedyScheduler(cluster, predictor, dynamic_beta=False)
        self._skew_free_ratio(cluster)
        index = scheduler._sorted_free()
        expected = sorted(
            (server.weighted_free(cluster.beta), server.server_id)
            for server in cluster.servers
        )
        assert index == pytest.approx(expected)


class TestDynamicBeta:
    def test_beta_tracks_free_ratio(self, scheduler, resnet_fn):
        start = scheduler._efficiency_beta()
        assert start == pytest.approx(200 / 16)
        # Exhaust most GPU: beta must fall (GPU scarce -> CPU cheap).
        from repro.cluster.resources import ResourceVector

        for server in scheduler.cluster.servers:
            scheduler.cluster.allocate(
                server.server_id, ResourceVector(gpu=100)
            )
        assert scheduler._efficiency_beta() < start

    def test_static_beta_option(self, cluster, predictor):
        scheduler = GreedyScheduler(cluster, predictor, dynamic_beta=False)
        assert scheduler._efficiency_beta() == cluster.beta


class TestCoPlacement:
    def test_preference_below_tolerance_is_refused(self, predictor):
        """The neighbour's server fits the instance, but its Eq. 10 score
        falls short of ``tolerance`` times the best-fit server's, so the
        scheduler keeps the best fit and counts a decision, not a hit.

        The chosen row (b=8, 1 core, 20% GPU; weighted cost 32.5 at
        beta 12.5) leaves 92% of the empty server 0 free, scoring
        1/0.92; the part-filled server 1 (4 cores, 50% GPU free) hits
        the fragmentation floor, scoring 1/0.8.  0.87 < 0.9.
        """
        workflow = WorkflowSpec(
            name="pair",
            stages=(
                WorkflowStage("p-a", model="resnet-50", downstream=("p-b",)),
                WorkflowStage("p-b", model="resnet-50"),
            ),
            end_to_end_slo_s=0.4,
        )
        cluster = build_testbed_cluster(num_servers=2)
        scheduler = GreedyScheduler(cluster, predictor)
        hint = CoPlacementHint(workflow)
        scheduler.coplacement = hint
        hint.record("p-a", 0)
        cluster.allocate(1, ResourceVector(cpu=6, gpu=100, memory_mb=1000))
        cluster.allocate(1, ResourceVector(cpu=6, gpu=50, memory_mb=1000))
        function = FunctionSpec.for_model("resnet-50", slo_s=0.2, name="p-b")
        (instance,) = scheduler.schedule(function, 50.0).instances
        assert cluster.server(0).can_fit(instance.placement.resources)
        assert instance.placement.server_id == 1
        assert (hint.hits, hint.decisions) == (0, 1)


class TestPinnedRows:
    """Algorithm 1's candidate rows, pinned byte for byte.

    Every ``(b, c, g, t_exec, r_low, r_up)`` row ``available_configs``
    yields for each (model, SLO) pair of the 120-function fleet, each
    batch up to the model's maximum and each GPU generation.
    """

    def test_rows_digest(self, predictor):
        import hashlib

        from repro.cluster.fleet import A100, T4
        from repro.simulation.largescale import make_function_fleet

        scheduler = GreedyScheduler(build_testbed_cluster(), predictor)
        pairs = {}
        for function in make_function_fleet(120):
            pairs.setdefault((function.model.name, function.slo_s), function)
        rows = []
        for key in sorted(pairs):
            function = pairs[key]
            for batch in scheduler.config_space.batches():
                if batch > function.model.max_batch:
                    continue
                for profile in (None, T4, A100):
                    rows.extend(
                        (config.batch, config.cpu, config.gpu, t_exec,
                         bounds.r_low, bounds.r_up)
                        for config, t_exec, bounds in scheduler.available_configs(
                            function, batch, 1e9, gpu_profile=profile
                        )
                    )
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert (len(rows), digest) == (
            29838,
            "7b9c38fb5857a94c45afec7fbbabb5aa59b6245f45e7d147d94017f9dcf23ae7",
        )
