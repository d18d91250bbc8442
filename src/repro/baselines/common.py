"""Shared machinery for the uniform-scaling baseline platforms.

OpenFaaS+ and BATCH differ from INFless in the same structural ways
(Table 3): every instance of a function gets the *same* configuration,
scaling is a simple target-count computation, placement ignores
fragmentation (first-fit), and retired instances sit in a fixed
keep-alive pool.  This base class implements that shared shape; the
concrete baselines override configuration selection.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.cluster.cluster import Cluster, Placement
from repro.cluster.resources import ResourceVector
from repro.core.autoscaler import ControlOutcome, InstanceRegistry, WarmPoolEntry
from repro.core.batching import RateBounds
from repro.core.function import FunctionSpec
from repro.core.instance import Instance, InstanceState
from repro.profiling.configspace import InstanceConfig
from repro.profiling.predictor import LatencyPredictor
from repro.telemetry import spans as ev
from repro.telemetry.tracer import NULL_TRACER, Tracer


class UniformScalingPlatform(InstanceRegistry):
    """Base class for uniform-scaling serving platforms.

    The platform is its own ``registry``, sharing INFless's warm-pool
    expiry, failure eviction and instance kill.

    Args:
        cluster: the cluster to place instances on.
        predictor: latency estimates used for capacity planning (the
            baselines profile functions as a whole; reusing the COP
            predictor only makes them *stronger* baselines).
        name: platform label for reports.
        seed: seed for the uniform request router.
        keepalive_s: fixed keep-alive window for retired instances.
        headroom: target utilisation of each instance's ``r_up`` when
            sizing the fleet (scaling out at 100% would leave no slack).
    """

    #: the audit layer only checks ``r_up > 0`` (BATCH overrides).
    invariant_slo_check = "none"
    workload_class = "single_shot"
    #: extra delay requests spend outside the platform (OTP designs).
    ingress_delay_s = 0.0
    #: bounded per-instance batch-queue depth (OpenFaaS+ overrides).
    waiting_batches = 2
    #: no Algorithm 1 scheduler: instances are sized uniformly.
    scheduler = None

    def __init__(
        self,
        cluster: Cluster,
        predictor: LatencyPredictor,
        *,
        name: str = "uniform",
        seed: int = 321,
        keepalive_s: float = 300.0,
        headroom: float = 0.85,
    ) -> None:
        if not 0.0 < headroom <= 1.0:
            raise ValueError("headroom must lie in (0, 1]")
        super().__init__(cluster)
        self.predictor = predictor
        self.keepalive_s = keepalive_s
        self.headroom = headroom
        self.name = name
        self._functions: Dict[str, FunctionSpec] = {}
        self._rng = np.random.default_rng(seed)
        # name -> (state version, valid-until, pool).  The router's
        # candidate pool only changes at control steps / failures
        # (version bump) or when a cold start finishes (valid-until).
        self._route_cache: Dict[str, tuple] = {}
        #: telemetry hooks, so baselines emit traces comparable to
        #: INFless's (attached by the serving runtime when recording).
        self.tracer: Tracer = NULL_TRACER

    # ------------------------------------------------------------------
    # to be provided by subclasses
    # ------------------------------------------------------------------
    def select_config(self, function: FunctionSpec, rps: float) -> InstanceConfig:
        """The uniform configuration for new instances of a function."""
        raise NotImplementedError

    def timeout_slack_s(self, function: FunctionSpec) -> float:
        """Latency budget consumed outside the platform (OTP buffer)."""
        return 0.0

    # ------------------------------------------------------------------
    # platform protocol
    # ------------------------------------------------------------------
    def deploy(self, function: FunctionSpec) -> None:
        if function.name in self._functions:
            raise ValueError(f"function {function.name!r} already deployed")
        self._functions[function.name] = function
        # Ledger entries exist from deploy on, in deploy order: warm
        # expiry and failure eviction walk the functions in that order.
        self._active[function.name] = []
        self._warm[function.name] = []

    def function(self, name: str) -> FunctionSpec:
        return self._functions[name]

    @property
    def functions(self) -> List[FunctionSpec]:
        return list(self._functions.values())

    @property
    def registry(self) -> "UniformScalingPlatform":
        """The instance ledger: the platform keeps it itself."""
        return self

    def instances(self, name: str) -> List[Instance]:
        return self.active_instances(name)

    def record_invocation(self, name: str, now: float) -> None:
        """Fixed keep-alive platforms keep no invocation history."""

    def route(self, name: str, now: float) -> Optional[Instance]:
        """Uniform platforms spread load evenly over ready instances.

        The pool is cached between control steps (see INFless's router
        for the invalidation rule); the uniform RNG draw still happens
        once per request so seeded replays stay bit-identical.
        """
        cached = self._route_cache.get(name)
        if cached is not None and cached[0] == self.version and now < cached[1]:
            pool = cached[2]
        else:
            pool, valid_until = self.route_pool(name, now)
            self._route_cache[name] = (self.version, valid_until, pool)
        if pool is None:
            return None
        return pool[int(self._rng.integers(len(pool)))]

    # ------------------------------------------------------------------
    # capacity planning
    # ------------------------------------------------------------------
    def _instance_capacity(self, function: FunctionSpec, config: InstanceConfig):
        t_exec = self.predictor.predict(
            function.model, config.batch, config.cpu, config.gpu
        )
        # Exact (un-floored) sustainable rate: the per-second floor both
        # zeroes out for t_exec >= 1s and over-reports capacity through
        # the max(1, .) clamp, skewing the fleet-size computation.
        r_up = config.batch / t_exec
        bounds = RateBounds(r_low=0.0, r_up=float(r_up))
        return t_exec, bounds

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _place(self, resources: ResourceVector) -> Optional[Placement]:
        """First-fit placement: the uniform platforms' scheduler."""
        for server in self.cluster.servers:
            if server.can_fit(resources):
                return self.cluster.allocate(server.server_id, resources)
        return None

    def make_instance(
        self, function: FunctionSpec, config: InstanceConfig, now: float
    ) -> Optional[Instance]:
        """Place one cold-starting ``config`` instance; None when full."""
        memory = int(round(function.model.memory_mb(config.batch)))
        placement = self._place(config.resources(memory_mb=memory))
        if placement is None:
            return None
        t_exec, bounds = self._instance_capacity(function, config)
        instance = Instance(
            function=function,
            config=config,
            t_exec_pred=t_exec,
            bounds=bounds,
            placement=placement,
            state=InstanceState.COLD_STARTING,
            timeout_slack_s=self.timeout_slack_s(function),
        )
        instance.ready_at = now + function.model.cold_start_s
        return instance

    # ------------------------------------------------------------------
    # warm pool
    # ------------------------------------------------------------------
    def _reclaim_warm(
        self, name: str, config: InstanceConfig, now: float
    ) -> Optional[Instance]:
        entries = self._warm[name]
        for index, entry in enumerate(entries):
            if entry.instance.config == config and now < entry.expires_at:
                del entries[index]
                held = max(0.0, now - entry.entered_at)
                weighted = entry.instance.config.weighted_cost(self.cluster.beta)
                self.stats.reserved_idle_resource_s += held * weighted
                entry.instance.state = InstanceState.ACTIVE
                entry.instance.ready_at = now
                return entry.instance
        return None

    # ------------------------------------------------------------------
    # the control step
    # ------------------------------------------------------------------
    def control(self, name: str, rps: float, now: float) -> ControlOutcome:
        self.version += 1
        self.expire_warm_pool(now)
        function = self._functions[name]
        active = self._active[name]
        outcome = ControlOutcome()

        config = self.select_config(function, rps)
        required = rps / self.headroom

        # Scale out against the fleet's *actual* capacity: instances
        # launched at earlier load levels may carry older uniform
        # configurations (the platform does not re-configure in place).
        def capacity() -> float:
            return sum(inst.r_up for inst in active)

        shortfall_rps = max(0.0, required - capacity())
        while capacity() < required:
            instance = self._reclaim_warm(name, config, now)
            if instance is not None:
                self.stats.warm_reuses += 1
                outcome.reclaimed.append(instance)
            else:
                instance = self.make_instance(function, config, now)
                if instance is None:
                    break  # cluster full
                self.stats.cold_starts += 1
                outcome.launched.append(instance)
                if self.tracer.enabled:
                    self.tracer.emit(
                        ev.COLD_START, now, function=name,
                        instance=instance.instance_id,
                        ready_at=instance.ready_at,
                        config=[config.batch, config.cpu, config.gpu],
                    )
            self.stats.launches += 1
            active.append(instance)
        if self.tracer.enabled and (outcome.launched or outcome.reclaimed):
            self.tracer.emit(
                ev.SCALE_UP, now, function=name,
                launched=len(outcome.launched),
                reclaimed=len(outcome.reclaimed), residual_rps=shortfall_rps,
            )

        # Scale in while the remaining fleet still covers the load.
        released = 0
        while len(active) > (1 if rps > 0 else 0):
            victim = self._pick_victim(active)
            if victim is None or capacity() - victim.r_up < required:
                break
            active.remove(victim)
            self._retire(name, victim, now)
            released += 1
        if self.tracer.enabled and released:
            self.tracer.emit(ev.SCALE_DOWN, now, function=name, released=released)

        share = rps / len(active) if active else 0.0
        for instance in active:
            instance.assigned_rate = share
            if (
                instance.state == InstanceState.COLD_STARTING
                and now >= instance.ready_at
            ):
                instance.state = InstanceState.ACTIVE
        return outcome

    def _pick_victim(self, active: List[Instance]) -> Optional[Instance]:
        """The least throughput-dense idle instance retires first."""
        idle = [
            inst
            for inst in active
            if not inst.busy and (inst.queue is None or len(inst.queue) == 0)
        ]
        if not idle:
            return None
        beta = self.cluster.beta
        return min(
            idle, key=lambda inst: inst.r_up / inst.config.weighted_cost(beta)
        )

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def on_server_failure(self, server_id: int, now: float) -> List[Instance]:
        """Terminate instances lost with a failed machine."""
        lost_ids = {
            placement.placement_id
            for placement in self.cluster.fail_server(server_id)
        }
        return self.evict_lost(lost_ids, now, failed_server_ids={server_id})

    def _retire(self, name: str, instance: Instance, now: float) -> None:
        instance.state = InstanceState.WARM_IDLE
        instance.assigned_rate = 0.0
        self.stats.releases += 1
        self._park(self._warm[name], WarmPoolEntry(
            instance=instance,
            expires_at=now + self.keepalive_s,
            reserved=True,
            available_from=now,
            entered_at=now,
        ))
