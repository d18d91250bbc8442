"""Stress-test capacity analysis (the Fig. 11 / 12(b) / 18 methodology).

The paper's throughput stress test drives each platform to saturation
on a fixed cluster and reports the maximum RPS.  The applications are
pipelines (every OSVT request exercises SSD, MobileNet *and*
ResNet-50), so the application's maximum rate is bottlenecked by its
least-provisioned function: the fill below always grows the function
whose capacity-per-traffic-share is currently smallest, and stops when
that bottleneck function cannot grow any more.  The large-scale
simulation uses the same analytic fill ("the theoretical throughput
upper bound", section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from repro.baselines.common import UniformScalingPlatform
from repro.core.engine import INFlessEngine
from repro.core.function import FunctionSpec
from repro.core.instance import Instance

#: the offered per-function load during stress (effectively unbounded).
STRESS_RPS = 1e9


@dataclass
class CapacityResult:
    """Saturation outcome of one platform on one workload mix."""

    platform: str
    #: function name -> placed capacity (sum of instance r_up).
    per_function_rps: Dict[str, float] = field(default_factory=dict)
    #: function name -> traffic share within the application.
    shares: Dict[str, float] = field(default_factory=dict)
    weighted_resources_used: float = 0.0
    weighted_active_capacity: float = 0.0
    fragment_ratio: float = 0.0
    instances: int = 0
    #: (batch, cpu, gpu) -> count of placed instances.
    config_counts: Dict[tuple, int] = field(default_factory=dict)
    #: (batch, cpu, gpu) -> summed r_up (Fig. 13 throughput shares).
    config_capacity: Dict[tuple, float] = field(default_factory=dict)

    @property
    def max_app_rps(self) -> float:
        """The application rate the bottleneck function sustains."""
        if not self.per_function_rps:
            return 0.0
        return min(
            self.per_function_rps[name] / self.shares[name]
            for name in self.per_function_rps
        )

    @property
    def throughput_per_resource(self) -> float:
        """Servable app RPS per weighted resource unit occupied."""
        if self.weighted_resources_used <= 0:
            return 0.0
        return self.max_app_rps / self.weighted_resources_used


def _record_instance(result: CapacityResult, instance: Instance) -> None:
    key = (instance.config.batch, instance.config.cpu, instance.config.gpu)
    result.config_counts[key] = result.config_counts.get(key, 0) + 1
    result.config_capacity[key] = (
        result.config_capacity.get(key, 0.0) + instance.r_up
    )
    result.instances += 1


def _normalised_shares(
    functions: Sequence[FunctionSpec], shares: Optional[Dict[str, float]]
) -> Dict[str, float]:
    if shares is None:
        return {fn.name: 1.0 / len(functions) for fn in functions}
    total = sum(shares[fn.name] for fn in functions)
    return {fn.name: shares[fn.name] / total for fn in functions}


def _balanced_fill(
    result: CapacityResult,
    functions: Sequence[FunctionSpec],
    place_one: Callable[[FunctionSpec], Optional[Instance]],
    max_instances: int = 100_000,
) -> CapacityResult:
    """Grow the bottleneck function until it cannot grow any more."""
    by_name = {fn.name: fn for fn in functions}
    while result.instances < max_instances:
        bottleneck = min(
            result.per_function_rps,
            key=lambda name: result.per_function_rps[name] / result.shares[name],
        )
        instance = place_one(by_name[bottleneck])
        if instance is None:
            break
        result.per_function_rps[bottleneck] += instance.r_up
        _record_instance(result, instance)
    return result


def _finish(result: CapacityResult, cluster) -> CapacityResult:
    result.weighted_resources_used = cluster.weighted_used()
    result.weighted_active_capacity = cluster.weighted_active_capacity()
    result.fragment_ratio = cluster.fragment_ratio()
    return result


def stress_fill_infless(
    engine: INFlessEngine,
    functions: Sequence[FunctionSpec],
    shares: Optional[Dict[str, float]] = None,
) -> CapacityResult:
    """Fill the cluster with INFless instances (Algorithm 1 per step)."""
    result = CapacityResult(
        platform="infless",
        per_function_rps={fn.name: 0.0 for fn in functions},
        shares=_normalised_shares(functions, shares),
    )
    deployed = {fn.name for fn in engine.functions}
    for function in functions:
        if function.name not in deployed:
            engine.deploy(function)

    def place_one(function: FunctionSpec) -> Optional[Instance]:
        placed = engine.scheduler.schedule(
            function, STRESS_RPS, max_instances=1
        ).instances
        return placed[0] if placed else None

    _balanced_fill(result, functions, place_one)
    return _finish(result, engine.cluster)


def stress_fill_uniform(
    platform: UniformScalingPlatform,
    functions: Sequence[FunctionSpec],
    shares: Optional[Dict[str, float]] = None,
) -> CapacityResult:
    """Fill the cluster with a uniform-scaling platform's instances."""
    result = CapacityResult(
        platform=platform.name,
        per_function_rps={fn.name: 0.0 for fn in functions},
        shares=_normalised_shares(functions, shares),
    )
    deployed = {fn.name for fn in platform.functions}
    configs = {}
    for function in functions:
        if function.name not in deployed:
            platform.deploy(function)
        configs[function.name] = platform.select_config(function, STRESS_RPS)

    def place_one(function: FunctionSpec) -> Optional[Instance]:
        return platform.make_instance(function, configs[function.name], now=0.0)

    _balanced_fill(result, functions, place_one)
    return _finish(result, platform.cluster)


def stress_capacity(
    platform,
    functions: Sequence[FunctionSpec],
    shares: Optional[Dict[str, float]] = None,
) -> CapacityResult:
    """Dispatch to the right fill routine for the platform type."""
    if isinstance(platform, INFlessEngine):
        return stress_fill_infless(platform, functions, shares)
    return stress_fill_uniform(platform, functions, shares)
