"""SLO feasibility planning: the developer-facing side of COP.

INFless is Backend-as-a-Service: a developer declares a model and an
SLO (the Fig. 5 template) and needs to know whether the platform can
honour it, and at what cost.  The planner answers that question from
the same predictions the scheduler uses: which <b, c, g>
configurations meet the SLO, what throughput each sustains, and the
cheapest way to serve a given load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.resources import BETA
from repro.core.function import FunctionSpec
from repro.core.scheduler import feasible_rows
from repro.profiling.configspace import ConfigSpace, InstanceConfig
from repro.profiling.predictor import LatencyPredictor


@dataclass(frozen=True)
class PlanEntry:
    """One feasible configuration for a (model, SLO) pair."""

    config: InstanceConfig
    t_exec_s: float
    r_low: float
    r_up: float

    def density(self, beta: float = BETA) -> float:
        """Peak requests/s per weighted resource unit."""
        return self.r_up / self.config.weighted_cost(beta)


class SLOPlanner:
    """Feasibility and sizing answers for deployed functions."""

    def __init__(
        self,
        predictor: LatencyPredictor,
        config_space: Optional[ConfigSpace] = None,
        beta: float = BETA,
    ) -> None:
        self.predictor = predictor
        self.config_space = config_space or ConfigSpace()
        self.beta = beta

    # ------------------------------------------------------------------
    def feasible_configs(self, function: FunctionSpec) -> List[PlanEntry]:
        """All configurations meeting the function's SLO, densest first."""
        configs = [
            config
            for batch in self.config_space.batches()
            if batch <= function.model.max_batch
            for config in self.config_space.configs_for_batch(batch)
        ]
        rows = feasible_rows(self.predictor, function.model, function.slo_s, configs)
        entries = [
            PlanEntry(config, t_exec, bounds.r_low, bounds.r_up)
            for config, t_exec, bounds in rows
        ]
        return sorted(entries, key=lambda e: -e.density(self.beta))

    def is_feasible(self, function: FunctionSpec) -> bool:
        """Can the platform honour this SLO at all?"""
        return bool(self.feasible_configs(function))

    def tightest_feasible_slo(
        self, function: FunctionSpec, resolution_s: float = 0.005
    ) -> Optional[float]:
        """The smallest SLO (to ``resolution_s``) any config satisfies.

        The fastest batch-1 execution time rounded up, since batch-1
        needs only ``t_exec <= t_slo``.
        """
        times = self.predictor.predict_configs(
            function.model, list(self.config_space.configs_for_batch(1))
        )
        if not times:
            return None
        return math.ceil(min(times) / resolution_s) * resolution_s

    def cheapest_plan(
        self, function: FunctionSpec, rps: float
    ) -> Optional[List[PlanEntry]]:
        """A minimal-cost instance mix covering ``rps``.

        Greedy over density, without the placement dimension:
        repeatedly take the configuration with the highest
        ``min(r_up, residual)`` per weighted resource unit among those
        whose ``r_low`` the residual still saturates.  Unlike the
        scheduler, which tries the largest batch first, it ranks every
        batch together.  ``rps`` must be non-negative and finite.
        """
        if not 0 <= rps < math.inf:
            raise ValueError(f"rps must be non-negative and finite, got {rps}")
        if rps == 0:
            return []
        entries = self.feasible_configs(function)
        if not entries:
            return None
        plan: List[PlanEntry] = []
        residual = rps
        while residual > 1e-9:
            usable = [
                e for e in entries
                if e.config.batch == 1 or residual >= e.r_low
            ]
            if not usable:
                return None
            # Cover the residual with the cheapest effective choice.
            best = max(
                usable,
                key=lambda e: min(e.r_up, residual)
                / e.config.weighted_cost(self.beta),
            )
            plan.append(best)
            residual -= best.r_up
        return plan

    def plan_cost(self, plan: List[PlanEntry]) -> float:
        """Total weighted resource cost of an instance mix."""
        return sum(entry.config.weighted_cost(self.beta) for entry in plan)
