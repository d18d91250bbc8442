"""Unit tests for the auto-scaling engine and its warm pool."""

import pytest

from repro.baselines import OpenFaaSPlus
from repro.cluster import build_testbed_cluster
from repro.core import (
    AutoScaler,
    FixedKeepAlive,
    FunctionSpec,
    GreedyScheduler,
    InstanceState,
)
from repro.core.coldstart import IDLE_DROP, IDLE_SWAP, ColdStartDecision
from repro.core.swap import SwapKeepAlive


class PrewarmPolicy(FixedKeepAlive):
    """Always unload immediately and prefetch after 30 s."""

    def windows(self, function_name, now):
        return ColdStartDecision(prewarm_s=30.0, keepalive_s=120.0)


class NoKeepAlive(FixedKeepAlive):
    """Drops every retiring instance."""

    def windows(self, function_name, now):
        return ColdStartDecision(prewarm_s=0.0, keepalive_s=0.0)


@pytest.fixture()
def resnet_fn():
    return FunctionSpec.for_model("resnet-50", slo_s=0.2)


def make_scaler(predictor, policy=None):
    cluster = build_testbed_cluster()
    scheduler = GreedyScheduler(cluster, predictor)
    return AutoScaler(scheduler, policy or FixedKeepAlive(300.0))


class TestScaleOut:
    def test_launches_cover_load(self, predictor, resnet_fn):
        scaler = make_scaler(predictor)
        action = scaler.observe(resnet_fn, rps=500.0, now=0.0)
        assert action.launched
        capacity = sum(i.r_up for i in scaler.active_instances(resnet_fn.name))
        assert capacity >= 500.0

    def test_new_instances_cold_start(self, predictor, resnet_fn):
        scaler = make_scaler(predictor)
        action = scaler.observe(resnet_fn, rps=300.0, now=0.0)
        for instance in action.launched:
            assert instance.state == InstanceState.COLD_STARTING
            assert instance.ready_at == pytest.approx(
                resnet_fn.model.cold_start_s
            )
        assert scaler.stats.cold_starts == len(action.launched)

    def test_rates_assigned_after_launch(self, predictor, resnet_fn):
        scaler = make_scaler(predictor)
        scaler.observe(resnet_fn, rps=300.0, now=0.0)
        total = sum(i.assigned_rate for i in scaler.active_instances(resnet_fn.name))
        assert total == pytest.approx(300.0)

    def test_instances_become_active_when_ready(self, predictor, resnet_fn):
        scaler = make_scaler(predictor)
        scaler.observe(resnet_fn, rps=300.0, now=0.0)
        later = resnet_fn.model.cold_start_s + 1.0
        scaler.observe(resnet_fn, rps=300.0, now=later)
        assert all(
            i.state == InstanceState.ACTIVE
            for i in scaler.active_instances(resnet_fn.name)
        )


class TestScaleInAndWarmPool:
    def test_scale_in_moves_to_warm_pool(self, predictor, resnet_fn):
        scaler = make_scaler(predictor)
        scaler.observe(resnet_fn, rps=2000.0, now=0.0)
        before = len(scaler.active_instances(resnet_fn.name))
        scaler.observe(resnet_fn, rps=50.0, now=10.0)
        after = len(scaler.active_instances(resnet_fn.name))
        assert after < before
        assert scaler.warm_pool(resnet_fn.name)

    def test_warm_reuse_skips_cold_start(self, predictor, resnet_fn):
        scaler = make_scaler(predictor)
        scaler.observe(resnet_fn, rps=2000.0, now=0.0)
        scaler.observe(resnet_fn, rps=50.0, now=10.0)
        cold_before = scaler.stats.cold_starts
        reuses_before = scaler.stats.warm_reuses + scaler.stats.prefetch_reuses
        action = scaler.observe(resnet_fn, rps=2000.0, now=20.0)
        assert action.reclaimed
        for instance in action.reclaimed:
            assert instance.ready_at == 20.0
        reuses = scaler.stats.warm_reuses + scaler.stats.prefetch_reuses
        assert reuses - reuses_before == len(action.reclaimed)
        assert scaler.stats.cold_starts == cold_before  # no new cold start

    def test_expired_warm_instances_release_resources(self, predictor, resnet_fn):
        scaler = make_scaler(predictor, FixedKeepAlive(30.0))
        scaler.observe(resnet_fn, rps=2000.0, now=0.0)
        scaler.observe(resnet_fn, rps=50.0, now=10.0)
        used_with_pool = scaler.scheduler.cluster.weighted_used()
        scaler.observe(resnet_fn, rps=50.0, now=100.0)  # pool expired
        assert scaler.scheduler.cluster.weighted_used() < used_with_pool
        assert not scaler.warm_pool(resnet_fn.name)

    def test_reserved_idle_waste_accrues(self, predictor, resnet_fn):
        def held_cost(scaler, entry, until):
            beta = scaler.scheduler.cluster.beta
            weighted = entry.instance.config.weighted_cost(beta)
            return (until - entry.entered_at) * weighted

        # An expired entry accrues its reserved time up to its expiry.
        scaler = make_scaler(predictor, FixedKeepAlive(30.0))
        scaler.observe(resnet_fn, rps=2000.0, now=0.0)
        scaler.observe(resnet_fn, rps=50.0, now=10.0)
        pool = scaler.warm_pool(resnet_fn.name)
        assert pool and all(entry.reserved for entry in pool)
        scaler.observe(resnet_fn, rps=50.0, now=100.0)
        assert scaler.stats.reserved_idle_resource_s > 0
        assert scaler.stats.reserved_idle_resource_s == sum(
            held_cost(scaler, entry, entry.expires_at) for entry in pool
        )
        # A reclaimed one accrues its reserved time up to the reuse.
        scaler = make_scaler(predictor, FixedKeepAlive(30.0))
        scaler.observe(resnet_fn, rps=2000.0, now=0.0)
        scaler.observe(resnet_fn, rps=50.0, now=10.0)
        pool = scaler.warm_pool(resnet_fn.name)
        action = scaler.observe(resnet_fn, rps=2000.0, now=20.0)
        assert action.reclaimed
        assert scaler.stats.reserved_idle_resource_s == sum(
            held_cost(scaler, entry, 20.0) for entry in pool
            if entry.instance in action.reclaimed
        )

    def test_zero_keepalive_releases_immediately(self, predictor, resnet_fn):
        scaler = make_scaler(predictor, NoKeepAlive())
        scaler.observe(resnet_fn, rps=2000.0, now=0.0)
        scaler.observe(resnet_fn, rps=50.0, now=10.0)
        assert not scaler.warm_pool(resnet_fn.name)

    def test_prewarm_policy_releases_quota_but_prefetches(self, predictor, resnet_fn):
        scaler = make_scaler(predictor, PrewarmPolicy())
        scaler.observe(resnet_fn, rps=2000.0, now=0.0)
        used_before = scaler.scheduler.cluster.weighted_used()
        scaler.observe(resnet_fn, rps=50.0, now=10.0)
        # Quota freed immediately despite entries in the pool.
        assert scaler.scheduler.cluster.weighted_used() < used_before
        pool = scaler.warm_pool(resnet_fn.name)
        assert pool and all(not entry.reserved for entry in pool)

    def test_prefetch_reuse_reacquires_resources(self, predictor, resnet_fn):
        scaler = make_scaler(predictor, PrewarmPolicy())
        scaler.observe(resnet_fn, rps=2000.0, now=0.0)
        scaler.observe(resnet_fn, rps=50.0, now=10.0)
        # After the 30 s pre-warm window the image is prefetched and a
        # scale-up takes it without a cold start.
        action = scaler.observe(resnet_fn, rps=2000.0, now=50.0)
        assert action.reclaimed
        assert scaler.stats.prefetch_reuses >= 1

    def test_prefetched_entry_unavailable_before_prewarm(self, predictor, resnet_fn):
        scaler = make_scaler(predictor, PrewarmPolicy())
        scaler.observe(resnet_fn, rps=2000.0, now=0.0)
        scaler.observe(resnet_fn, rps=50.0, now=10.0)
        cold_before = scaler.stats.cold_starts
        scaler.observe(resnet_fn, rps=2000.0, now=20.0)  # before 10+30s
        assert scaler.stats.cold_starts > cold_before


class SwapEveryRetiree(SwapKeepAlive):
    """Parks every retiree's weights in host RAM, even for 0 s."""

    def on_idle(self, function_name, instance, server, now):
        return IDLE_DROP if server is None else IDLE_SWAP


class TestExpiryWatermark:
    """``expire_warm_pool`` does nothing before the earliest expiry."""

    def test_infless_pool_untouched_until_the_expiry_tick(
        self, predictor, resnet_fn
    ):
        scaler = make_scaler(predictor, FixedKeepAlive(30.0))
        scaler.observe(resnet_fn, rps=2000.0, now=0.0)
        scaler.observe(resnet_fn, rps=50.0, now=10.0)
        pool = scaler._warm[resnet_fn.name]
        parked = list(pool)
        assert parked and scaler._next_expiry == 40.0
        used = scaler.scheduler.cluster.weighted_used()
        scaler.expire_warm_pool(39.999)
        assert scaler._warm[resnet_fn.name] is pool and pool == parked
        assert scaler.scheduler.cluster.weighted_used() == used
        scaler.expire_warm_pool(40.0)
        assert not scaler.warm_pool(resnet_fn.name)
        assert all(
            entry.instance.state == InstanceState.TERMINATED
            for entry in parked
        )
        assert scaler.scheduler.cluster.weighted_used() < used
        assert scaler._next_expiry == float("inf")

    def test_openfaas_pool_untouched_until_the_expiry_tick(
        self, predictor, resnet_fn
    ):
        platform = OpenFaaSPlus(
            build_testbed_cluster(), predictor, keepalive_s=30.0
        )
        platform.deploy(resnet_fn)
        platform.control(resnet_fn.name, rps=500.0, now=0.0)
        platform.control(resnet_fn.name, rps=50.0, now=10.0)
        pool = platform._warm[resnet_fn.name]
        parked = list(pool)
        assert parked and platform._next_expiry == 40.0
        platform.expire_warm_pool(39.999)
        assert platform._warm[resnet_fn.name] is pool and pool == parked
        platform.expire_warm_pool(40.0)
        assert not platform.warm_pool(resnet_fn.name)
        assert platform._next_expiry == float("inf")

    def test_zero_keepalive_swap_unloads_at_next_observe_same_tick(
        self, predictor, resnet_fn
    ):
        scaler = make_scaler(predictor, SwapEveryRetiree(keepalive_s=0.0))
        cluster = scaler.scheduler.cluster
        scaler.observe(resnet_fn, rps=2000.0, now=0.0)
        scaler.observe(resnet_fn, rps=50.0, now=10.0)
        parked = scaler.warm_pool(resnet_fn.name)
        assert parked
        assert all(entry.expires_at == 10.0 for entry in parked)
        assert sum(server.swap_reserved_mb for server in cluster.servers) > 0
        other = FunctionSpec.for_model("mobilenet", slo_s=0.1)
        scaler.observe(other, rps=0.0, now=10.0)
        assert not scaler.warm_pool(resnet_fn.name)
        assert all(server.swap_reserved_mb == 0.0 for server in cluster.servers)
