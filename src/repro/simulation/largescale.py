"""Large-scale simulation (section 5.3, Figs. 17 and 18).

Mirrors the paper's methodology: the cluster is programmatically
scaled to thousands of servers, the platforms' *real scheduling code*
runs against the simulated machines, and only scheduling decisions are
recorded -- no request-level execution.  The metrics are the
theoretical throughput upper bound per unit of resource, the resource
fragment ratio and the wall-clock scheduling overhead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.fleet import build_testbed_cluster
from repro.core.engine import INFlessEngine
from repro.core.function import FunctionSpec
from repro.models.zoo import MODEL_ZOO
from repro.simulation.platform import ServingPlatform

#: the paper's large-scale cluster size.
LARGE_CLUSTER_SERVERS = 2000

#: SLO choices cycled across the synthetic fleet (seconds).
FLEET_SLOS: Sequence[float] = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4)


def make_function_fleet(
    count: int,
    slos: Sequence[float] = FLEET_SLOS,
    prefix: str = "fleet",
) -> List[FunctionSpec]:
    """Up to ``count`` functions cycling the model zoo and SLO choices.

    The paper creates "no more than 40 functions by varying their
    respective SLOs and request loads".
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    models = sorted(MODEL_ZOO.values(), key=lambda m: m.name)
    functions = []
    for index in range(count):
        model = models[index % len(models)]
        slo = slos[index % len(slos)]
        # Very tight SLOs are infeasible for the largest models; give
        # them the next SLO tier up, as a real operator would.
        if model.gflops >= 4.0 and slo < 0.15:
            slo = 0.2
        functions.append(
            FunctionSpec(
                name=f"{prefix}-{index:02d}-{model.name}",
                model=model,
                slo_s=slo,
            )
        )
    return functions


@dataclass
class OverheadPoint:
    """One point of the Fig. 17(a) scheduling-overhead curve."""

    instances: int
    total_overhead_s: float

    @property
    def per_instance_ms(self) -> float:
        if self.instances == 0:
            return 0.0
        return 1e3 * self.total_overhead_s / self.instances


def scheduling_overhead_curve(
    instance_counts: Sequence[int],
    num_servers: int = LARGE_CLUSTER_SERVERS,
    num_functions: int = 40,
    predictor=None,
) -> List[OverheadPoint]:
    """Measure Schedule() wall-clock cost at growing instance counts.

    For each target count a fresh large cluster is filled with that
    many instances (round-robin over a synthetic fleet) while timing
    only the scheduler itself.
    """
    points = []
    functions = make_function_fleet(num_functions)
    # Warm the predictor's memoisation before timing: the production
    # system profiles ahead of deployment, so cache population is not
    # part of the scheduling overhead being measured.
    warm_engine = INFlessEngine(build_testbed_cluster(4), predictor=predictor)
    for function in functions:
        warm_engine.deploy(function)
        warm_engine.scheduler.schedule(function, 1e9, max_instances=1)
    for target in instance_counts:
        cluster = build_testbed_cluster(num_servers)
        engine = INFlessEngine(cluster, predictor=predictor)
        for function in functions:
            engine.deploy(function)
        placed = 0
        overhead = 0.0
        index = 0
        while placed < target:
            function = functions[index % len(functions)]
            index += 1
            started = time.perf_counter()
            outcome = engine.scheduler.schedule(
                function, 1e9, max_instances=1
            )
            overhead += time.perf_counter() - started
            if not outcome.instances:
                break  # cluster full before reaching the target
            placed += 1
        points.append(OverheadPoint(instances=placed, total_overhead_s=overhead))
    return points


@dataclass
class ProvisioningResult:
    """Outcome of provisioning a fixed fleet load on one platform.

    The Fig. 18 metric is throughput per unit of occupied resource:
    each function carries a *given* request load ("we create no more
    than 40 functions by varying their respective SLOs and request
    loads"), the platform provisions instances for it, and we record
    the weighted resources its scheduler consumed.
    """

    platform: str
    loads: Dict[str, float]
    weighted_resources_used: float
    fragment_ratio: float
    instances: int

    @property
    def total_rps(self) -> float:
        return sum(self.loads.values())

    @property
    def throughput_per_resource(self) -> float:
        if self.weighted_resources_used <= 0:
            return 0.0
        return self.total_rps / self.weighted_resources_used


def function_loads(
    functions: Sequence[FunctionSpec],
    base_rps: float = 400.0,
    spread: float = 4.0,
    seed: int = 17,
) -> Dict[str, float]:
    """Deterministic per-function request loads for the fleet."""
    import numpy as np

    rng = np.random.default_rng(seed)
    return {
        fn.name: float(base_rps * rng.uniform(1.0, spread))
        for fn in functions
    }


def _resolve_factory(
    factory: "Callable[[Cluster], ServingPlatform] | str",
) -> Callable[[Cluster], ServingPlatform]:
    """Accept a ``cluster -> platform`` callable or a registry name."""
    if isinstance(factory, str):
        from repro.api import make_platform

        name = factory
        return lambda cluster: make_platform(name, cluster)
    return factory


def largescale_capacity(
    platform_factory: "Callable[[Cluster], ServingPlatform] | str",
    num_functions: int,
    num_servers: int = LARGE_CLUSTER_SERVERS,
    slos: Sequence[float] = FLEET_SLOS,
    base_rps: float = 400.0,
) -> ProvisioningResult:
    """Provision a fixed fleet load through one platform (Fig. 18)."""
    cluster = build_testbed_cluster(num_servers)
    platform = _resolve_factory(platform_factory)(cluster)
    functions = make_function_fleet(num_functions, slos=slos)
    loads = function_loads(functions, base_rps=base_rps)
    count = 0
    for function in functions:
        platform.deploy(function)
        platform.control(function.name, loads[function.name], now=0.0)
        count += len(platform.instances(function.name))
    return ProvisioningResult(
        platform=platform.name,
        loads=loads,
        weighted_resources_used=cluster.weighted_used(),
        fragment_ratio=cluster.fragment_ratio(),
        instances=count,
    )


def throughput_vs_functions(
    platform_factories: "Dict[str, Callable[[Cluster], ServingPlatform] | str]",
    function_counts: Sequence[int] = (10, 20, 30, 40),
    num_servers: int = LARGE_CLUSTER_SERVERS,
    base_rps: float = 400.0,
) -> Dict[str, List[Tuple[int, ProvisioningResult]]]:
    """Fig. 18(a): throughput per resource across fleet sizes."""
    results: Dict[str, List[Tuple[int, ProvisioningResult]]] = {}
    for name, factory in platform_factories.items():
        series = []
        for count in function_counts:
            series.append(
                (
                    count,
                    largescale_capacity(
                        factory, count, num_servers, base_rps=base_rps
                    ),
                )
            )
        results[name] = series
    return results


def throughput_vs_slo(
    platform_factories: "Dict[str, Callable[[Cluster], ServingPlatform] | str]",
    slos: Sequence[float] = (0.15, 0.2, 0.25, 0.3),
    num_functions: int = 20,
    num_servers: int = LARGE_CLUSTER_SERVERS,
    base_rps: float = 400.0,
) -> Dict[str, List[Tuple[float, ProvisioningResult]]]:
    """Fig. 18(b): throughput per resource across SLO settings."""
    results: Dict[str, List[Tuple[float, ProvisioningResult]]] = {}
    for name, factory in platform_factories.items():
        series = []
        for slo in slos:
            series.append(
                (
                    slo,
                    largescale_capacity(
                        factory,
                        num_functions,
                        num_servers,
                        slos=(slo,),
                        base_rps=base_rps,
                    ),
                )
            )
        results[name] = series
    return results
