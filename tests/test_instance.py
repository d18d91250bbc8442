"""Unit tests for function instances."""

import pytest

from repro.core import FunctionSpec, Instance, InstanceState
from repro.core.batching import RateBounds, rate_bounds
from repro.profiling.configspace import InstanceConfig


def make_instance(t_exec=0.05, slo=0.2, batch=4, slack=0.0):
    function = FunctionSpec.for_model("resnet-50", slo_s=slo)
    return Instance(
        function=function,
        config=InstanceConfig(batch=batch, cpu=2, gpu=20),
        t_exec_pred=t_exec,
        bounds=rate_bounds(t_exec, slo, batch),
        timeout_slack_s=slack,
    )


class TestInstance:
    def test_queue_created_with_batch_size(self):
        instance = make_instance(batch=4)
        assert instance.queue.batch_size == 4

    def test_batch_timeout_is_slo_minus_exec(self):
        instance = make_instance(t_exec=0.05, slo=0.2)
        assert instance.batch_timeout_s == pytest.approx(0.15)

    def test_timeout_slack_reduces_budget(self):
        instance = make_instance(t_exec=0.05, slo=0.2, slack=0.015)
        assert instance.batch_timeout_s == pytest.approx(0.135)

    def test_timeout_never_negative(self):
        instance = make_instance(t_exec=0.09, slo=0.2, slack=0.2)
        assert instance.batch_timeout_s == 0.0

    def test_rate_shortcuts(self):
        instance = make_instance(t_exec=0.05, slo=0.2, batch=4)
        assert instance.r_low == 28.0
        assert instance.r_up == 80.0

    def test_instance_ids_unique(self):
        assert make_instance().instance_id != make_instance().instance_id

    def test_zero_exec_time_rejected(self):
        function = FunctionSpec.for_model("mnist", slo_s=0.05)
        with pytest.raises(ValueError):
            Instance(
                function=function,
                config=InstanceConfig(1, 1, 0),
                t_exec_pred=0.0,
                bounds=RateBounds(0.0, 10.0),
            )

    def test_dispatchable_states(self):
        instance = make_instance()
        assert instance.is_dispatchable()  # COLD_STARTING accepts requests
        instance.state = InstanceState.ACTIVE
        assert instance.is_dispatchable()
        instance.state = InstanceState.WARM_IDLE
        assert not instance.is_dispatchable()
        instance.state = InstanceState.TERMINATED
        assert not instance.is_dispatchable()


class TestFunctionSpec:
    def test_for_model_names_function(self):
        fn = FunctionSpec.for_model("mnist", slo_s=0.05)
        assert fn.name == "fn-mnist"
        assert fn.model.name == "mnist"

    def test_custom_name(self):
        fn = FunctionSpec.for_model("mnist", slo_s=0.05, name="digits")
        assert fn.name == "digits"

    def test_zero_slo_rejected(self):
        with pytest.raises(ValueError):
            FunctionSpec.for_model("mnist", slo_s=0.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            FunctionSpec(name="", model=FunctionSpec.for_model("mnist", 0.05).model,
                         slo_s=0.05)
