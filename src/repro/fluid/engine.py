"""The fluid simulation loop and its report plumbing.

:class:`FluidSimulation` advances every function's
:class:`~repro.fluid.model.FunctionFluid` state vector with an
explicit-Euler tick loop (one tick per control interval, matching the
discrete runtime's control cadence), then folds the per-function
results through the same sorted-name sketch merge the sharded replays
use -- so a fluid report, a sharded replay, and a hybrid merge all
speak the identical :class:`~repro.simulation.metrics.SimulationReport`
dialect.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.campaign.shards import merge_function_results
from repro.core.dispatcher import ALPHA_DEFAULT
from repro.core.function import FunctionSpec
from repro.fluid.model import CapacityLadder, FunctionFluid
from repro.invariants import resolve_checker
from repro.profiling.configspace import ConfigSpace
from repro.profiling.executor import GroundTruthExecutor
from repro.profiling.predictor import LatencyPredictor, build_default_predictor
from repro.simulation.metrics import SimulationReport
from repro.workloads.trace import Trace

#: keep-alive window matching the policy default the discrete runtime
#: applies before a function has invocation history
#: (:data:`repro.core.coldstart.WindowedKeepAlive.DEFAULT_DECISION`).
DEFAULT_KEEPALIVE_S = 600.0


def _parse_config_key(key: str) -> Tuple[int, int, int]:
    """Invert the report's ``"b{b}c{c}g{g}"`` histogram key."""
    body = key[1:]
    b_part, rest = body.split("c", 1)
    c_part, g_part = rest.split("g", 1)
    return (int(b_part), int(c_part), int(g_part))


def report_from_merged(merged: Dict[str, object]) -> SimulationReport:
    """Rebuild a :class:`SimulationReport` from a sketch-merge dict.

    The merge fold (:func:`repro.campaign.shards.merge_function_results`)
    emits a flat dict with stringified histogram keys and a few derived
    rates; this reconstructs the typed report so fluid and hybrid runs
    return the same object every other engine does.
    """
    return SimulationReport(
        duration_s=float(merged["duration_s"]),
        arrived=int(merged["arrived"]),
        completed=int(merged["completed"]),
        dropped=int(merged["dropped"]),
        slo_violations=int(merged["slo_violations"]),
        latency_mean_s=float(merged["latency_mean_s"]),
        latency_p50_s=float(merged["latency_p50_s"]),
        latency_p95_s=float(merged["latency_p95_s"]),
        latency_p99_s=float(merged["latency_p99_s"]),
        mean_cold_wait_s=float(merged["mean_cold_wait_s"]),
        mean_queue_wait_s=float(merged["mean_queue_wait_s"]),
        mean_exec_s=float(merged["mean_exec_s"]),
        batch_histogram={
            int(key): int(value)
            for key, value in merged["batch_histogram"].items()
        },
        config_histogram={
            _parse_config_key(key): int(value)
            for key, value in merged["config_histogram"].items()
        },
        resource_time_weighted=float(merged["resource_time_weighted"]),
        mean_weighted_usage=float(merged["mean_weighted_usage"]),
        peak_weighted_usage=float(merged["peak_weighted_usage"]),
        mean_fragment_ratio=float(merged["mean_fragment_ratio"]),
        cold_starts=int(merged["cold_starts"]),
        launches=int(merged["launches"]),
        warm_reuses=int(merged["warm_reuses"]),
        per_function_violation=dict(merged["per_function_violation"]),
        normalized_throughput=float(merged["normalized_throughput"]),
        achieved_rps=float(merged["achieved_rps"]),
        reserved_idle_resource_s=float(merged["reserved_idle_resource_s"]),
        cpu_core_seconds=float(merged["cpu_core_seconds"]),
        gpu_seconds=float(merged["gpu_seconds"]),
        drop_reasons={
            key: int(value)
            for key, value in merged.get("drop_reasons", {}).items()
        },
        invariant_violations=list(merged.get("invariant_violations", [])),
        metrics_mode="sketch",
        latency_sketch=merged["latency_sketch"],
    )


class FluidSimulation:
    """Continuous-time fluid replay of a multi-function workload.

    Args:
        functions: specs to serve (one fluid state vector each).
        workload: function name -> arrival trace.
        predictor: latency predictor the capacity ladder plans with.
        executor: ground-truth executor supplying actual batch times
            and the noise spread for the latency atoms.
        beta: CPU-vs-GPU weighting for cost/efficiency scores.
        control_interval_s: Euler step, matching the discrete
            runtime's control-tick cadence.
        warmup_s: statistics before this time are discarded (resource
            integrals are clipped, mirroring the discrete collector).
        ewma: rate-estimate smoothing (``est = ewma*measured +
            (1-ewma)*prev``), as the runtime's estimator.
        pending_cap: queue-depth cap; overflow drops (``queue_full``).
        keepalive_s: warm-pool retention window (LSTH default).
        invariants: audit mode (``off``/``collect``/``strict``) or a
            pre-built checker; flow conservation is audited per tick.
        seed: accepted for engine-interface symmetry; the fluid path
            is deterministic by construction and never draws from it.
        rate_mode: ``"measured"`` runs the controller on the EWMA of
            the fluid arrival rate (the runtime's estimator);
            ``"oracle"`` reads the trace directly, matching the
            discrete runtime's oracle mode tick for tick.
    """

    def __init__(
        self,
        *,
        functions: Iterable[FunctionSpec],
        workload: Dict[str, Trace],
        predictor: Optional[LatencyPredictor] = None,
        executor: Optional[GroundTruthExecutor] = None,
        beta: Optional[float] = None,
        control_interval_s: float = 1.0,
        warmup_s: float = 0.0,
        ewma: float = 0.6,
        pending_cap: int = 100_000,
        keepalive_s: float = DEFAULT_KEEPALIVE_S,
        alpha: float = ALPHA_DEFAULT,
        invariants: Union[None, str, object] = None,
        seed: int = 42,
        config_space: Optional[ConfigSpace] = None,
        rate_mode: str = "measured",
    ) -> None:
        if control_interval_s <= 0:
            raise ValueError("control_interval_s must be > 0")
        from repro.cluster.resources import BETA

        self.functions = {spec.name: spec for spec in functions}
        missing = sorted(set(workload) - set(self.functions))
        if missing:
            raise ValueError(
                f"workload names {missing} have no deployed function"
            )
        self.workload = dict(workload)
        self.predictor = predictor or build_default_predictor()
        self.executor = executor or GroundTruthExecutor()
        self.beta = BETA if beta is None else beta
        self.control_interval_s = control_interval_s
        self.warmup_s = warmup_s
        self.ewma = ewma
        self.pending_cap = pending_cap
        self.keepalive_s = keepalive_s
        self.alpha = alpha
        self.seed = seed
        self.rate_mode = rate_mode
        self.checker = resolve_checker(invariants)
        self._config_space = config_space
        self.steps = 0
        self.fluids: Dict[str, FunctionFluid] = {}
        self._payloads: Optional[List[Dict[str, object]]] = None
        self.report: Optional[SimulationReport] = None

    # ------------------------------------------------------------------
    # the step loop
    # ------------------------------------------------------------------
    def _build_fluid(self, name: str) -> FunctionFluid:
        function = self.functions[name]
        ladder = CapacityLadder(
            function,
            self.predictor,
            self.executor,
            self.beta,
            config_space=self._config_space,
        )
        hardware = self.executor.hardware
        return FunctionFluid(
            function,
            self.workload[name],
            ladder,
            ewma=self.ewma,
            alpha=self.alpha,
            keepalive_s=self.keepalive_s,
            pending_cap=self.pending_cap,
            warmup_s=self.warmup_s,
            noise_sigma=hardware.noise_sigma,
            rate_mode=self.rate_mode,
        )

    def run(self) -> SimulationReport:
        """Integrate every function to its horizon; return the report."""
        if self.report is not None:
            return self.report
        payloads: List[Dict[str, object]] = []
        for name in sorted(self.workload):
            fluid = self._build_fluid(name)
            self.fluids[name] = fluid
            dt = self.control_interval_s
            horizon = self.workload[name].duration_s
            ticks = max(1, int(math.ceil(horizon / dt - 1e-9)))
            for k in range(ticks):
                now = k * dt
                step = min(dt, horizon - now)
                fluid.step(now, step)
                self.steps += 1
                if self.checker.enabled:
                    self.checker.check_fluid_tick(name, fluid.ledger(), now)
            # Drain: after arrivals stop, let the active set clear the
            # residual queue (the discrete runtime also completes
            # in-flight work past the horizon).
            drained = 0
            while fluid.queue > 1e-6 and fluid.service_rps > 1e-9:
                now = (ticks + drained) * dt
                fluid.step(now, dt)
                self.steps += 1
                drained += 1
                if drained > 10_000:
                    break
            if self.checker.enabled:
                self.checker.check_fluid_final(name, fluid.ledger())
            payloads.append({
                "function": name,
                "report": self._function_report(fluid),
            })
        self._payloads = payloads
        merged = merge_function_results(payloads)
        self.report = report_from_merged(merged)
        if self.checker.enabled and self.checker.violations:
            self.report.invariant_violations = [
                violation.to_dict() for violation in self.checker.violations
            ]
        return self.report

    @property
    def effective_events(self) -> int:
        """Request events a discrete replay would have processed.

        Arrivals, completions and drops each cost the event loop one
        heap operation; this is the equivalent-work denominator behind
        the fluid engine's events/s claims.
        """
        total = 0.0
        for fluid in self.fluids.values():
            total += fluid.arrived_all + fluid.served_all + fluid.dropped_all
        return int(round(total))

    def per_function_payloads(self) -> List[Dict[str, object]]:
        """The per-function sketch payloads (for hybrid merging)."""
        if self._payloads is None:
            raise RuntimeError("run() the simulation first")
        return [dict(payload) for payload in self._payloads]

    # ------------------------------------------------------------------
    # report assembly
    # ------------------------------------------------------------------
    def _function_report(self, fluid: FunctionFluid) -> Dict[str, object]:
        """One function's state -> a sketch-mode report payload dict.

        The payload matches what a sharded micro-simulation stores, so
        :func:`~repro.campaign.shards.merge_function_results` folds
        fluid and discrete payloads interchangeably.
        """
        trace = fluid.trace
        # The collector reports the post-warmup horizon (rates divide
        # by the span the kept statistics actually cover).
        duration = max(1e-9, trace.duration_s - self.warmup_s)
        completed = int(round(fluid.served_kept))
        arrived = int(round(fluid.arrived_kept))
        dropped = int(round(fluid.dropped_kept))
        violations = min(int(round(fluid.violations_kept)), completed)
        served = fluid.served_kept
        mean_latency = fluid.latency_sum / served if served > 0 else 0.0
        mean_queue = fluid.queue_wait_sum / served if served > 0 else 0.0
        mean_exec = fluid.exec_sum / served if served > 0 else 0.0
        sketch = fluid.sketch
        usage_mean = (
            fluid.usage_kept_sum / fluid.usage_kept_count
            if fluid.usage_kept_count
            else 0.0
        )
        resource_time = fluid.resource_time_weighted
        payload: Dict[str, object] = {
            "duration_s": duration,
            "arrived": arrived,
            "completed": completed,
            "dropped": dropped,
            "slo_violations": violations,
            "latency_mean_s": mean_latency,
            "latency_p50_s": sketch.quantile(50.0),
            "latency_p95_s": sketch.quantile(95.0),
            "latency_p99_s": sketch.quantile(99.0),
            "mean_cold_wait_s": 0.0,
            "mean_queue_wait_s": mean_queue,
            "mean_exec_s": mean_exec,
            "batch_histogram": {
                str(batch): int(round(count))
                for batch, count in sorted(fluid.batch_hist.items())
                if int(round(count)) > 0
            },
            "config_histogram": {
                f"b{b}c{c}g{g}": int(round(count))
                for (b, c, g), count in sorted(fluid.config_hist.items())
                if int(round(count)) > 0
            },
            "resource_time_weighted": resource_time,
            "mean_weighted_usage": usage_mean,
            "peak_weighted_usage": fluid.usage_peak,
            "mean_fragment_ratio": 0.0,
            "cold_starts": fluid.cold_starts,
            "launches": fluid.launches,
            "warm_reuses": fluid.warm_reuses,
            "per_function_violation": {
                fluid.function.name: (
                    violations / completed if completed else 0.0
                )
            },
            "normalized_throughput": (
                completed / resource_time if resource_time > 0 else 0.0
            ),
            "achieved_rps": completed / duration if duration > 0 else 0.0,
            "reserved_idle_resource_s": max(
                0.0, fluid.reserved_idle_weighted_s
            ),
            "cpu_core_seconds": fluid.cpu_core_seconds,
            "gpu_seconds": fluid.gpu_percent_seconds / 100.0,
            "drop_reasons": (
                {"queue_full": dropped} if dropped else {}
            ),
            "metrics_mode": "sketch",
            "latency_sketch": sketch.to_dict(),
        }
        return payload
