"""Tests for the SLO feasibility planner."""

import pytest

from repro.analysis import SLOPlanner
from repro.core import FunctionSpec


@pytest.fixture()
def planner(predictor):
    return SLOPlanner(predictor)


class TestFeasibleConfigs:
    def test_all_entries_meet_slo(self, planner):
        fn = FunctionSpec.for_model("resnet-50", slo_s=0.2)
        for entry in planner.feasible_configs(fn):
            if entry.config.batch == 1:
                assert entry.t_exec_s <= fn.slo_s
            else:
                assert entry.t_exec_s <= fn.slo_s / 2

    def test_sorted_by_density(self, planner):
        fn = FunctionSpec.for_model("mobilenet", slo_s=0.1)
        densities = [e.density() for e in planner.feasible_configs(fn)]
        assert densities == sorted(densities, reverse=True)

    def test_tight_slo_shrinks_choices(self, planner):
        model = "resnet-50"
        loose = planner.feasible_configs(FunctionSpec.for_model(model, 0.3))
        tight = planner.feasible_configs(FunctionSpec.for_model(model, 0.06))
        assert len(tight) < len(loose)

    def test_impossible_slo_infeasible(self, planner):
        fn = FunctionSpec.for_model("bert-v1", slo_s=0.004)
        assert not planner.is_feasible(fn)

    def test_respects_model_max_batch(self, planner):
        fn = FunctionSpec.for_model("bert-v1", slo_s=0.5)
        assert all(
            e.config.batch <= fn.model.max_batch
            for e in planner.feasible_configs(fn)
        )


class TestTightestSlo:
    def test_tightest_is_feasible(self, planner):
        fn = FunctionSpec.for_model("ssd", slo_s=1.0)
        tightest = planner.tightest_feasible_slo(fn)
        assert tightest is not None
        assert planner.is_feasible(FunctionSpec.for_model("ssd", tightest))

    def test_small_models_have_tiny_floor(self, planner):
        fn = FunctionSpec.for_model("mnist", slo_s=1.0)
        assert planner.tightest_feasible_slo(fn) <= 0.02

    def test_big_models_have_larger_floor(self, planner):
        small = planner.tightest_feasible_slo(
            FunctionSpec.for_model("mnist", 1.0)
        )
        big = planner.tightest_feasible_slo(
            FunctionSpec.for_model("bert-v1", 1.0)
        )
        assert big > small


class TestCheapestPlan:
    def test_plan_covers_load(self, planner):
        fn = FunctionSpec.for_model("resnet-50", slo_s=0.2)
        plan = planner.cheapest_plan(fn, rps=800.0)
        assert plan is not None
        assert sum(e.r_up for e in plan) >= 800.0

    def test_zero_load_is_empty(self, planner):
        fn = FunctionSpec.for_model("resnet-50", slo_s=0.2)
        assert planner.cheapest_plan(fn, rps=0.0) == []

    def test_infeasible_slo_returns_none(self, planner):
        fn = FunctionSpec.for_model("bert-v1", slo_s=0.004)
        assert planner.cheapest_plan(fn, rps=10.0) is None

    def test_bigger_load_costs_more(self, planner):
        fn = FunctionSpec.for_model("ssd", slo_s=0.2)
        small = planner.plan_cost(planner.cheapest_plan(fn, 100.0))
        large = planner.plan_cost(planner.cheapest_plan(fn, 2000.0))
        assert large > small

    def test_low_load_avoids_unsaturable_batches(self, planner):
        fn = FunctionSpec.for_model("resnet-50", slo_s=0.2)
        plan = planner.cheapest_plan(fn, rps=10.0)
        assert plan is not None
        for entry in plan:
            assert entry.config.batch == 1 or entry.r_low <= 10.0


class TestPinnedPlans:
    """``feasible_configs`` and ``cheapest_plan`` over the zoo, pinned
    byte for byte: every feasible row ``(b, c, g, t_exec, r_low,
    r_up)`` in the planner's order, and every plan's configs."""

    def test_plans_digest(self, planner):
        import hashlib

        from repro.models import MODEL_ZOO

        rows = []
        for model in sorted(MODEL_ZOO):
            for slo_ms in (50, 100, 200, 400):
                fn = FunctionSpec.for_model(model, slo_s=slo_ms / 1000)
                rows.append(tuple(
                    (e.config.batch, e.config.cpu, e.config.gpu,
                     e.t_exec_s, e.r_low, e.r_up)
                    for e in planner.feasible_configs(fn)
                ))
                for rps in (10.0, 800.0):
                    plan = planner.cheapest_plan(fn, rps)
                    rows.append(None if plan is None else tuple(
                        (e.config.batch, e.config.cpu, e.config.gpu)
                        for e in plan
                    ))
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert (len(rows), digest) == (
            132,
            "58fbb570b28526600f299f2ebd1a2d569cdd3d47adb09851abe250b8b1a71a40",
        )
