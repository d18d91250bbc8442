"""Hybrid engine: discrete head, fluid tail.

A fleet's request volume is head-heavy: a few hot functions carry most
of the traffic (and most of the interesting queueing dynamics), while
a long tail of lukewarm functions mostly exercises keep-alive
windows.  The hybrid engine spends discrete-event fidelity where it
matters -- the top-K functions by expected request volume -- and
routes everything else through the O(functions) fluid path, then folds
both sides through the sharded-replay sketch merge so the result is
one standard report.

Partitioning is deterministic (expected requests, function name as the
tie-break), and when K covers every function the hybrid report is
byte-identical to the pure-DES sharded replay -- the merge fold is
partition-independent by construction, which the tests pin.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.campaign.shards import merge_function_results
from repro.core.function import FunctionSpec
from repro.fluid.engine import FluidSimulation, report_from_merged
from repro.profiling.executor import GroundTruthExecutor
from repro.profiling.predictor import LatencyPredictor
from repro.simulation.metrics import SimulationReport
from repro.workloads.trace import Trace


def partition_functions(
    workload: Dict[str, Trace], hot_k: int
) -> Tuple[List[str], List[str]]:
    """Split function names into (hot, cold) by expected volume.

    The hottest ``hot_k`` functions -- largest
    :meth:`~repro.workloads.trace.Trace.expected_requests`, name as the
    deterministic tie-break -- go to the discrete engine; the rest go
    to the fluid path.  ``hot_k >= len(workload)`` sends everything
    discrete.
    """
    if hot_k < 0:
        raise ValueError("hot_k must be >= 0")
    ranked = sorted(
        workload,
        key=lambda name: (-workload[name].expected_requests(), name),
    )
    hot = sorted(ranked[:hot_k])
    cold = sorted(ranked[hot_k:])
    return hot, cold


class HybridSimulation:
    """Top-K discrete + fluid tail, merged into one report.

    The discrete side runs each hot function as its own sketch-mode
    micro-simulation with the sharded-replay per-function seeds, so a
    hybrid run at ``hot_k >= len(workload)`` reproduces the pure
    sharded DES replay byte for byte regardless of where the
    partition threshold falls.

    Args:
        functions: specs for every function in the workload.
        workload: function name -> arrival trace.
        hot_k: how many of the hottest functions run discretely.
        platform: registry platform name for the discrete side.
        servers: micro-cluster size per discrete function.
        seed: root seed; per-function seeds derive exactly as the
            sharded replays derive them.

    The remaining knobs mirror :class:`FluidSimulation`.
    """

    def __init__(
        self,
        *,
        functions: Iterable[FunctionSpec],
        workload: Dict[str, Trace],
        hot_k: int = 1,
        platform: str = "infless",
        servers: int = 8,
        predictor: Optional[LatencyPredictor] = None,
        executor: Optional[GroundTruthExecutor] = None,
        warmup_s: float = 0.0,
        invariants: Union[None, str, object] = None,
        seed: int = 42,
        rate_mode: str = "measured",
    ) -> None:
        self.functions = {spec.name: spec for spec in functions}
        self.workload = dict(workload)
        self.hot_k = hot_k
        self.platform = platform
        self.servers = servers
        self.predictor = predictor
        self.executor = executor
        self.warmup_s = warmup_s
        self.invariants = invariants
        self.seed = seed
        self.rate_mode = rate_mode
        self.hot, self.cold = partition_functions(workload, hot_k)
        self.fluid: Optional[FluidSimulation] = None
        self.report: Optional[SimulationReport] = None

    # ------------------------------------------------------------------
    def _run_hot(self, name: str) -> Dict[str, object]:
        """One hot function through a discrete micro-simulation."""
        from repro.api.experiment import Experiment
        from repro.campaign.shards import function_seed

        function = self.functions[name]
        report = Experiment(
            platform=self.platform,
            servers=self.servers,
            functions=[function],
            workload={name: self.workload[name]},
            predictor=self.predictor,
            executor=self.executor,
            warmup_s=self.warmup_s,
            invariants=self.invariants,
            metrics_mode="sketch",
            rate_mode=self.rate_mode,
            seed=function_seed(self.seed, name),
        ).run()
        return {"function": name, "report": report.to_dict()}

    def run(self) -> SimulationReport:
        """Run both sides, merge, return the standard report."""
        if self.report is not None:
            return self.report
        payloads: List[Dict[str, object]] = [
            self._run_hot(name) for name in self.hot
        ]
        if self.cold:
            self.fluid = FluidSimulation(
                functions=[self.functions[name] for name in self.cold],
                workload={name: self.workload[name] for name in self.cold},
                predictor=self.predictor,
                executor=self.executor,
                warmup_s=self.warmup_s,
                invariants=self.invariants,
                rate_mode=self.rate_mode,
            )
            self.fluid.run()
            payloads.extend(self.fluid.per_function_payloads())
        merged = merge_function_results(payloads)
        self.report = report_from_merged(merged)
        return self.report
