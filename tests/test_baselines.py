"""Tests for the comparison systems: OpenFaaS+, BATCH, BATCH+RS, Lambda."""

import numpy as np
import pytest

from repro.baselines import (
    BatchOTP,
    BatchRS,
    LAMBDA_MEMORY_SIZES_MB,
    LambdaLike,
    OpenFaaSPlus,
)
from repro.baselines.batch_otp import OTP_RESOURCE_TIERS
from repro.baselines.common import HEADROOM
from repro.baselines.openfaas import OPENFAAS_CONFIG
from repro.cluster import build_testbed_cluster
from repro.core import FunctionSpec
from repro.models import get_model

from tests.goldens import assert_golden


@pytest.fixture()
def resnet_fn():
    return FunctionSpec.for_model("resnet-50", slo_s=0.2)


class TestOpenFaaSPlus:
    def test_fixed_uniform_config(self, predictor, resnet_fn):
        platform = OpenFaaSPlus(build_testbed_cluster(), predictor)
        for rps in (1.0, 100.0, 10000.0):
            assert platform.select_config(resnet_fn, rps) == OPENFAAS_CONFIG

    def test_one_to_one_mapping(self, predictor, resnet_fn):
        assert OPENFAAS_CONFIG.batch == 1

    def test_scaling_targets_load(self, predictor, resnet_fn):
        platform = OpenFaaSPlus(build_testbed_cluster(), predictor)
        platform.deploy(resnet_fn)
        outcome = platform.control(resnet_fn.name, rps=200.0, now=0.0)
        assert outcome.launched
        capacity = sum(i.r_up for i in platform.instances(resnet_fn.name))
        assert capacity >= 200.0 * HEADROOM

    def test_scale_in_uses_warm_pool(self, predictor, resnet_fn):
        platform = OpenFaaSPlus(build_testbed_cluster(), predictor)
        platform.deploy(resnet_fn)
        platform.control(resnet_fn.name, rps=500.0, now=0.0)
        many = len(platform.instances(resnet_fn.name))
        platform.control(resnet_fn.name, rps=50.0, now=10.0)
        assert len(platform.instances(resnet_fn.name)) < many
        cold_before = platform.stats.cold_starts
        platform.control(resnet_fn.name, rps=500.0, now=20.0)
        assert platform.stats.cold_starts == cold_before  # warm reuse
        assert platform.stats.warm_reuses > 0

    def test_fixed_keepalive_expires(self, predictor, resnet_fn):
        platform = OpenFaaSPlus(
            build_testbed_cluster(), predictor, keepalive_s=30.0
        )
        platform.deploy(resnet_fn)
        platform.control(resnet_fn.name, rps=500.0, now=0.0)
        platform.control(resnet_fn.name, rps=50.0, now=10.0)
        platform.control(resnet_fn.name, rps=50.0, now=100.0)
        assert not platform._warm[resnet_fn.name]

    def test_duplicate_deploy_rejected(self, predictor, resnet_fn):
        platform = OpenFaaSPlus(build_testbed_cluster(), predictor)
        platform.deploy(resnet_fn)
        with pytest.raises(ValueError):
            platform.deploy(resnet_fn)


class TestBaselineFailures:
    @pytest.mark.parametrize("platform_cls", [OpenFaaSPlus, BatchOTP])
    def test_server_crash_counts_lost_instances(
        self, predictor, resnet_fn, platform_cls
    ):
        platform = platform_cls(build_testbed_cluster(num_servers=8), predictor)
        platform.deploy(resnet_fn)
        platform.control(resnet_fn.name, rps=300.0, now=0.0)
        lost = platform.on_server_failure(0, now=30.0)
        lost += platform.on_server_failure(1, now=30.0)
        assert lost
        assert platform.stats.failures == len(lost)


class TestBatchOTP:
    def test_config_restricted_to_tiers(self, predictor, resnet_fn):
        platform = BatchOTP(build_testbed_cluster(), predictor)
        config = platform.select_config(resnet_fn, rps=5000.0)
        assert (config.cpu, config.gpu) in OTP_RESOURCE_TIERS

    def test_prefers_largest_saturable_batch(self, predictor, resnet_fn):
        platform = BatchOTP(build_testbed_cluster(), predictor)
        stress = platform.select_config(resnet_fn, rps=1e6)
        light = platform.select_config(resnet_fn, rps=20.0)
        assert stress.batch >= light.batch

    def test_ingress_delay_and_slack(self, predictor, resnet_fn):
        platform = BatchOTP(build_testbed_cluster(), predictor)
        assert platform.ingress_delay_s > 0
        assert platform.timeout_slack_s(resnet_fn) == platform.ingress_delay_s

    def test_choice_cached_per_load_bucket(self, predictor, resnet_fn):
        platform = BatchOTP(build_testbed_cluster(), predictor)
        first = platform.select_config(resnet_fn, rps=1000.0)
        second = platform.select_config(resnet_fn, rps=1010.0)  # same bucket
        assert first == second

    def test_respects_model_max_batch(self, predictor):
        platform = BatchOTP(build_testbed_cluster(), predictor)
        bert = FunctionSpec.for_model("bert-v1", slo_s=0.4)
        config = platform.select_config(bert, rps=1e6)
        assert config.batch <= bert.model.max_batch

    def test_instances_carry_timeout_slack(self, predictor, resnet_fn):
        platform = BatchOTP(build_testbed_cluster(), predictor)
        platform.deploy(resnet_fn)
        platform.control(resnet_fn.name, rps=300.0, now=0.0)
        for instance in platform.instances(resnet_fn.name):
            assert instance.timeout_slack_s == platform.ingress_delay_s


    def test_selections_digest(self, predictor):
        """``select_config`` over the zoo at four SLOs and the OSVT and
        Q&A stage budgets, across load buckets, pinned byte for byte
        (``None`` where no configuration meets the SLO)."""
        from repro.models import MODEL_ZOO
        from repro.workflows.decompose import decompose_slo
        from repro.workflows.spec import build_preset_workflow

        functions = [
            FunctionSpec.for_model(model, slo_s=slo_s)
            for model in sorted(MODEL_ZOO)
            for slo_s in (0.05, 0.1, 0.2, 0.4)
        ]
        for preset in ("osvt", "qa"):
            workflow = build_preset_workflow(preset)
            budgets = decompose_slo(workflow, predictor, policy="decomposed")
            functions.extend(
                FunctionSpec.for_model(
                    stage.model, slo_s=budgets[stage.name], name=stage.name
                )
                for stage in workflow.stages
            )
        platform = BatchOTP(build_testbed_cluster(), predictor)
        rows = []
        for fn in functions:
            for rps in (0.0, 1.0, 10.0, 100.0, 1000.0, 10000.0):
                try:
                    config = platform.select_config(fn, rps)
                except RuntimeError:
                    rows.append((fn.name, rps, None))
                    continue
                rows.append((fn.name, rps, config.batch, config.cpu, config.gpu))
        assert_golden("batch_otp.selections", rows)

class TestBatchRS:
    def test_best_fit_reduces_fragments_vs_first_fit(self, predictor):
        functions = [
            FunctionSpec.for_model("resnet-50", 0.2),
            FunctionSpec.for_model("mobilenet", 0.2, name="fn-mblnt"),
        ]
        frag = {}
        for cls in (BatchOTP, BatchRS):
            platform = cls(build_testbed_cluster(), predictor)
            for fn in functions:
                platform.deploy(fn)
            # Interleave moderate loads to create packing pressure.
            for now in range(0, 10):
                for fn in functions:
                    platform.control(fn.name, rps=400.0 + 100 * now, now=float(now))
            frag[cls.__name__] = platform.cluster.fragment_ratio()
        assert frag["BatchRS"] <= frag["BatchOTP"] + 1e-9


class TestLambdaLike:
    def test_proportional_quota(self):
        lam = LambdaLike()
        assert lam.cpu_quota(1769.0) == pytest.approx(1.0)
        assert lam.cpu_quota(10_000.0) == pytest.approx(3008 / 1769)

    def test_small_memory_cannot_load_large_model(self, executor):
        lam = LambdaLike(executor)
        bert = get_model("bert-v1")
        assert not lam.can_load(bert, 1024.0)
        assert lam.invocation_time(bert, 1024.0) is None

    def test_more_memory_is_faster(self, executor):
        lam = LambdaLike(executor)
        resnet = get_model("resnet-50")
        slow = lam.invocation_time(resnet, 1024.0)
        fast = lam.invocation_time(resnet, 3008.0)
        assert slow > fast

    def test_large_models_miss_200ms_even_at_max_memory(self, executor):
        # Observation 1.
        lam = LambdaLike(executor)
        for name in ("bert-v1", "vggnet"):
            time_s = lam.invocation_time(get_model(name), 3008.0)
            assert time_s is None or time_s > 0.2

    def test_small_models_fine_on_lambda(self, executor):
        lam = LambdaLike(executor)
        assert lam.invocation_time(get_model("mnist"), 512.0) < 0.05

    def test_min_memory_for_slo(self, executor):
        lam = LambdaLike(executor)
        needed = lam.min_memory_for_slo(get_model("ssd"), 0.2)
        assert needed in LAMBDA_MEMORY_SIZES_MB
        assert lam.invocation_time(get_model("ssd"), needed) <= 0.2

    def test_min_memory_none_when_unreachable(self, executor):
        lam = LambdaLike(executor)
        assert lam.min_memory_for_slo(get_model("bert-v1"), 0.05) is None

    def test_overprovision_exceeds_half_for_compute_bound(self, executor):
        # Observation 3: >50% of function memory over-provisioned.
        lam = LambdaLike(executor)
        ratio = lam.overprovision_ratio(get_model("ssd"), 0.2)
        assert ratio is not None and ratio > 0.5

    def test_batching_reduces_invocations(self, executor):
        # Observation 4 / Fig. 3(a).
        lam = LambdaLike(executor)
        rng = np.random.default_rng(0)
        arrivals = np.sort(rng.uniform(0, 60.0, size=2000))
        model = get_model("resnet-20")
        plain = lam.replay_one_to_one(arrivals, model, 2048.0)
        batched = lam.replay_with_batching(arrivals, model, 2048.0, batch=4)
        assert plain.invocations == 2000
        reduction = 1 - batched.invocations / plain.invocations
        assert reduction > 0.6  # paper: 72% fewer invocations
        assert batched.instances_launched < plain.instances_launched
        assert batched.memory_gb_s < plain.memory_gb_s

    def test_replay_rejects_unloadable_model(self, executor):
        lam = LambdaLike(executor)
        with pytest.raises(ValueError):
            lam.replay_one_to_one([0.0], get_model("bert-v1"), 512.0)

    def test_batch_timeout_flushes_partial_batches(self, executor):
        lam = LambdaLike(executor)
        arrivals = [0.0, 10.0, 20.0]  # far apart: each times out alone
        stats = lam.replay_with_batching(
            arrivals, get_model("resnet-20"), 2048.0, batch=4, timeout_s=0.1
        )
        assert stats.invocations == 3
