"""The auto-scaling engine (sections 3.2 and 3.4).

Monitors each function's real-time RPS, keeps per-instance shares
inside their Eq. 1 ranges via the dispatcher, launches new instances
through Algorithm 1 for overflow load, and retires instances into a
warm pool governed by the cold-start policy:

* a retired instance with pre-warm window 0 stays **reserved**: it
  holds its resources for the keep-alive window and can be reclaimed
  with zero cold start (the reserved idle time is the policy's
  resource waste);
* with a positive pre-warm window the instance unloads immediately and
  its image is **prefetched** again at the pre-warm time -- a scale-up
  of the function inside ``[prewarm, prewarm + keepalive]`` skips the
  cold-start latency but must re-acquire resources;
* a :class:`~repro.core.coldstart.ColdStartPolicy` may instead decide
  **swap** (Torpor-style): the quota is released and the model weights
  park in the server's host RAM, so a reuse pays only the PCIe
  swap-in delay instead of a full cold start.

The ledger itself -- live instances, warm pool, failure eviction --
is :class:`InstanceRegistry`, which the uniform baselines share.

:class:`HybridAutoScaler` adds HAS-GPU-style vertical scaling on top:
before launching new instances for overflow load, it grows the SM
quota of live instances in place (re-pricing their Eq. 1 rate ranges)
and only falls back to horizontal scale-out for the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.core.coldstart import (
    IDLE_DROP,
    IDLE_RESERVE,
    IDLE_SWAP,
    ColdStartPolicy,
)
from repro.core.dispatcher import ALPHA_DEFAULT, plan_dispatch
from repro.core.function import FunctionSpec
from repro.core.instance import Instance, InstanceState
from repro.core.scheduler import GreedyScheduler, feasible_rows
from repro.core.swap import swap_weights_mb
from repro.profiling.configspace import InstanceConfig
from repro.telemetry import spans as ev
from repro.telemetry.tracer import NULL_TRACER, Tracer


@dataclass
class WarmPoolEntry:
    """A retired instance kept warm (reserved), prefetched or swapped."""

    instance: Instance
    expires_at: float
    reserved: bool
    available_from: float  # prewarm time for prefetched entries
    entered_at: float
    #: server holding the swapped-out weights (Torpor-style entries).
    swap_server_id: Optional[int] = None
    #: host-RAM reservation charged for those weights, in MB.
    swap_mb: float = 0.0


@dataclass
class ScalingStats:
    """Counters for cold-start and provisioning analyses."""

    launches: int = 0
    cold_starts: int = 0
    warm_reuses: int = 0
    prefetch_reuses: int = 0
    #: warm reuses that paid a PCIe swap-in (subset of ``warm_reuses``).
    swap_reuses: int = 0
    releases: int = 0
    #: in-place SM-quota growths (hybrid autoscaler).
    vertical_resizes: int = 0
    #: instances lost to server failures.
    failures: int = 0
    reserved_idle_resource_s: float = 0.0


@dataclass
class ControlOutcome:
    """What one control step did for one function, on any platform.

    ``dispatch_case`` is the section-3.2 case INFless's dispatcher
    applied (``"i"``, ``"ii"``, ``"ii-under"`` or ``"iii"``); platforms
    without a dispatcher leave it empty.
    """

    launched: List[Instance] = field(default_factory=list)
    reclaimed: List[Instance] = field(default_factory=list)
    dispatch_case: str = ""


class InstanceRegistry:
    """Per-function live instances and warm pools, plus scaling stats.

    :class:`AutoScaler` (INFless) and the uniform baselines subclass
    it; the serving runtime and the invariant audit read it as the
    platform's ``registry``.
    """

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._active: Dict[str, List[Instance]] = {}
        self._warm: Dict[str, List[WarmPoolEntry]] = {}
        #: a lower bound on every warm entry's ``expires_at``: until
        #: then :meth:`expire_warm_pool` has nothing to do.  Entries
        #: enter only through :meth:`_park`, which lowers it; leaving
        #: (reclaim, eviction) can only raise the true minimum, so the
        #: bound stays valid until the next full pass recomputes it.
        self._next_expiry = float("inf")
        #: bumped whenever instance sets / states / rates may change
        #: (control steps, failures); the router's per-function candidate
        #: cache keys on it.
        self.version = 0
        self.stats = ScalingStats()

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def active_instances(self, function_name: str) -> List[Instance]:
        """Copy of a function's live instance list."""
        return list(self._active.get(function_name, []))

    def all_active_instances(self) -> List[Instance]:
        """Live instances across every function."""
        return [inst for group in self._active.values() for inst in group]

    def warm_pool(self, function_name: str) -> List[WarmPoolEntry]:
        """Copy of a function's warm-pool entries."""
        return list(self._warm.get(function_name, []))

    def all_warm_entries(self) -> List[WarmPoolEntry]:
        """Warm-pool entries across every function."""
        return [entry for entries in self._warm.values() for entry in entries]

    def route_pool(
        self, function_name: str, now: float
    ) -> Tuple[Optional[List[Instance]], float]:
        """The router's candidates and the time they stop being valid.

        Ready instances, else cold-starting ones (their requests wait),
        else None; valid until the next pending ``ready_at``.
        """
        candidates = [
            inst
            for inst in self._active.get(function_name, [])
            if inst.is_dispatchable()
        ]
        valid_until = min(
            (inst.ready_at for inst in candidates if inst.ready_at > now),
            default=float("inf"),
        )
        if not candidates:
            return None, valid_until
        ready = [inst for inst in candidates if now >= inst.ready_at]
        return ready or candidates, valid_until

    # ------------------------------------------------------------------
    # warm pool maintenance
    # ------------------------------------------------------------------
    def _park(self, pool: List[WarmPoolEntry], entry: WarmPoolEntry) -> None:
        """Append a retired instance's entry to its function's pool."""
        pool.append(entry)
        if entry.expires_at < self._next_expiry:
            self._next_expiry = entry.expires_at

    def expire_warm_pool(self, now: float) -> None:
        """Unload warm-pool entries whose keep-alive window elapsed.

        Free before the expiry watermark; a pass recomputes it.
        """
        if now < self._next_expiry:
            return
        next_expiry = float("inf")
        for name, entries in self._warm.items():
            kept: List[WarmPoolEntry] = []
            for entry in entries:
                if now >= entry.expires_at:
                    self._unload(entry, until=entry.expires_at)
                else:
                    kept.append(entry)
                    if entry.expires_at < next_expiry:
                        next_expiry = entry.expires_at
            self._warm[name] = kept
        self._next_expiry = next_expiry

    def _unload(self, entry: WarmPoolEntry, until: float) -> None:
        self._drop_swap_reservation(entry)
        if entry.reserved:
            held = max(0.0, until - entry.entered_at)
            weighted = entry.instance.config.weighted_cost(self.cluster.beta)
            self.stats.reserved_idle_resource_s += held * weighted
            self._release(entry.instance)
        entry.instance.state = InstanceState.TERMINATED

    def _drop_swap_reservation(self, entry: WarmPoolEntry) -> None:
        """Return an entry's parked weights to the host-RAM pool."""
        if entry.swap_mb <= 0.0 or entry.swap_server_id is None:
            return
        server = self.cluster.server(entry.swap_server_id)
        if server.healthy:
            server.swap_release(entry.swap_mb)
        entry.swap_mb = 0.0
        entry.swap_server_id = None

    def _release(self, instance: Instance) -> None:
        """Return an instance's placement to the cluster; terminate it."""
        if instance.placement is not None:
            self.cluster.release(instance.placement)
            instance.placement = None
        instance.state = InstanceState.TERMINATED

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def evict_lost(
        self, lost_placement_ids, now: float, failed_server_ids=None
    ) -> List[Instance]:
        """Drop instances whose placements died with a failed server.

        Their resources are already gone (the cluster removed the
        placements); this just terminates the bookkeeping so the next
        control step re-provisions capacity elsewhere.  Warm-pool
        entries whose swapped-out weights were parked on a server in
        ``failed_server_ids`` are dropped too -- without releasing the
        reservation, since recovery resets the machine's ledger.
        """
        self.version += 1
        failed_servers = frozenset(failed_server_ids or ())
        lost_instances: List[Instance] = []
        for name, group in self._active.items():
            kept = []
            for instance in group:
                placement = instance.placement
                if placement is not None and placement.placement_id in lost_placement_ids:
                    instance.placement = None
                    instance.state = InstanceState.TERMINATED
                    instance.assigned_rate = 0.0
                    lost_instances.append(instance)
                else:
                    kept.append(instance)
            self._active[name] = kept
        for name, entries in self._warm.items():
            kept_entries = []
            for entry in entries:
                placement = entry.instance.placement
                if placement is not None and placement.placement_id in lost_placement_ids:
                    entry.instance.placement = None
                    entry.instance.state = InstanceState.TERMINATED
                elif (
                    entry.swap_server_id is not None
                    and entry.swap_server_id in failed_servers
                ):
                    # The parked weights died with the host.
                    entry.swap_mb = 0.0
                    entry.swap_server_id = None
                    entry.instance.state = InstanceState.TERMINATED
                else:
                    kept_entries.append(entry)
            self._warm[name] = kept_entries
        self.stats.failures += len(lost_instances)
        return lost_instances

    def kill_instance(self, name: str, now: float) -> Optional[Instance]:
        """Terminate one active instance of ``name`` (container crash).

        Deterministically picks the youngest instance (highest id),
        releases its placement and returns it; None when the function
        has no active instances to kill.
        """
        group = self._active.get(name)
        if not group:
            return None
        victim = max(group, key=lambda inst: inst.instance_id)
        group.remove(victim)
        self._release(victim)
        victim.assigned_rate = 0.0
        self.version += 1
        self.stats.failures += 1
        return victim


class AutoScaler(InstanceRegistry):
    """Per-function scaling on top of the greedy scheduler.

    Args:
        scheduler: Algorithm 1 wrapper owning cluster placement.
        policy: cold-start policy deciding warm-pool windows and what
            a retiring instance does (:meth:`ColdStartPolicy.on_idle`).
        alpha: the dispatcher's oscillation-damping constant.
    """

    def __init__(
        self,
        scheduler: GreedyScheduler,
        policy: ColdStartPolicy,
        alpha: float = ALPHA_DEFAULT,
    ) -> None:
        super().__init__(scheduler.cluster)
        self.scheduler = scheduler
        self.policy = policy
        self.alpha = alpha
        #: telemetry hooks; no-op unless a recording tracer is attached.
        self.tracer: Tracer = NULL_TRACER

    def _release(self, instance: Instance) -> None:
        # The scheduler also tells the co-placement hint.
        self.scheduler.release(instance)

    def _retire(self, function: FunctionSpec, instance: Instance, now: float) -> None:
        decision = self.policy.windows(function.name, now)
        instance.assigned_rate = 0.0
        pool = self._warm.setdefault(function.name, [])
        placement = instance.placement
        server = (
            self.scheduler.cluster.server(placement.server_id)
            if placement is not None
            else None
        )
        mode = self.policy.on_idle(function.name, instance, server, now)
        if mode == IDLE_SWAP:
            weights_mb = swap_weights_mb(instance)
            if server is not None and server.swap_reserve(weights_mb):
                self.scheduler.release(instance)
                instance.state = InstanceState.WARM_IDLE
                self._park(pool, WarmPoolEntry(
                    instance=instance,
                    expires_at=now + decision.keepalive_s,
                    reserved=False,
                    available_from=now,
                    entered_at=now,
                    swap_server_id=server.server_id,
                    swap_mb=weights_mb,
                ))
                self.stats.releases += 1
                return
            # Host RAM full (Torpor's cache overflow): plain unload.
            mode = IDLE_DROP
        if mode == IDLE_DROP:
            instance.state = InstanceState.WARM_IDLE
            entry = WarmPoolEntry(instance, now, True, now, now)
            self._unload(entry, until=now)
            self.stats.releases += 1
            return
        if mode == IDLE_RESERVE:
            instance.state = InstanceState.WARM_IDLE
            self._park(pool, WarmPoolEntry(
                instance=instance,
                expires_at=now + decision.keepalive_s,
                reserved=True,
                available_from=now,
                entered_at=now,
            ))
        else:
            # Unload now, prefetch the image at the pre-warm time.
            self.scheduler.release(instance)
            instance.state = InstanceState.WARM_IDLE
            self._park(pool, WarmPoolEntry(
                instance=instance,
                expires_at=now + decision.prewarm_s + decision.keepalive_s,
                reserved=False,
                available_from=now + decision.prewarm_s,
                entered_at=now,
            ))
        self.stats.releases += 1

    def _reclaim(
        self, function: FunctionSpec, residual_rps: float, now: float
    ) -> List[Instance]:
        """Pull suitable warm-pool instances back into service."""
        pool = self._warm.get(function.name, [])
        reclaimed: List[Instance] = []
        remaining: List[WarmPoolEntry] = []
        residual = residual_rps
        for entry in pool:
            usable = (
                residual > 0
                and now < entry.expires_at
                and now >= entry.available_from
                and (entry.instance.config.batch == 1
                     or residual >= entry.instance.r_low)
            )
            if not usable:
                remaining.append(entry)
                continue
            instance = entry.instance
            if entry.reserved:
                # Account the reserved idle interval as policy waste.
                held = max(0.0, now - entry.entered_at)
                weighted = instance.config.weighted_cost(self.scheduler.cluster.beta)
                self.stats.reserved_idle_resource_s += held * weighted
                instance.state = InstanceState.ACTIVE
                instance.ready_at = now
                self.stats.warm_reuses += 1
            elif entry.swap_server_id is not None:
                # Swapped-out weights: re-acquire quota (preferring the
                # server parking the weights), then pay the PCIe
                # swap-in delay instead of a full cold start.  Only a
                # swapping policy parks such entries, and it defines
                # on_reuse (see ColdStartPolicy).
                placement = self._try_reallocate(
                    instance, prefer=entry.swap_server_id
                )
                if placement is None:
                    remaining.append(entry)
                    continue
                server = self.scheduler.cluster.server(placement.server_id)
                swapped_mb = entry.swap_mb
                self._drop_swap_reservation(entry)
                delay = self.policy.on_reuse(
                    function.name, instance, server, now,
                    swapped_mb=swapped_mb,
                )
                instance.placement = placement
                instance.ready_at = now + max(0.0, delay)
                instance.state = (
                    InstanceState.COLD_STARTING
                    if instance.ready_at > now
                    else InstanceState.ACTIVE
                )
                self.stats.warm_reuses += 1
                self.stats.swap_reuses += 1
            else:
                # Prefetched image: must re-acquire resources, but the
                # startup skips the model-load latency.
                placement = self._try_reallocate(instance)
                if placement is None:
                    remaining.append(entry)
                    continue
                instance.placement = placement
                instance.state = InstanceState.ACTIVE
                instance.ready_at = now
                self.stats.prefetch_reuses += 1
            residual -= instance.r_up
            reclaimed.append(instance)
        self._warm[function.name] = remaining
        return reclaimed

    def _try_reallocate(self, instance: Instance, prefer: Optional[int] = None):
        cluster = self.scheduler.cluster
        memory = int(round(instance.function.model.memory_mb(instance.config.batch)))
        resources = instance.config.resources(memory_mb=memory)
        if prefer is not None:
            server = cluster.server(prefer)
            if server.can_fit(resources):
                return cluster.allocate(prefer, resources)
        for server in cluster.servers:
            if server.can_fit(resources):
                return cluster.allocate(server.server_id, resources)
        return None

    # ------------------------------------------------------------------
    # vertical scaling hook
    # ------------------------------------------------------------------
    def _vertical_scale(
        self,
        function: FunctionSpec,
        active: List[Instance],
        residual_rps: float,
        now: float,
    ) -> float:
        """Capacity (RPS) gained by resizing live instances in place.

        The base scaler is horizontal-only and gains nothing;
        :class:`HybridAutoScaler` overrides this with HAS-GPU-style
        SM-quota growth.
        """
        return 0.0

    # ------------------------------------------------------------------
    # the control step
    # ------------------------------------------------------------------
    def observe(
        self, function: FunctionSpec, rps: float, now: float
    ) -> ControlOutcome:
        """One control step for one function at time ``now``.

        Runs the dispatcher over the function's active instances,
        reclaims warm instances and/or schedules new ones for overflow
        load, retires surplus instances per case (iii), and returns the
        resulting outcome (with per-instance rates applied in place).
        """
        self.version += 1
        self.expire_warm_pool(now)
        active = self._active.setdefault(function.name, [])
        plan = plan_dispatch(active, rps, alpha=self.alpha, beta=self.scheduler.cluster.beta)
        if self.tracer.enabled:
            self.tracer.emit(
                ev.DISPATCH_PLAN, now, function=function.name,
                **plan.trace_args(),
            )

        for instance in plan.to_release:
            active.remove(instance)
            self._retire(function, instance, now)
        if plan.to_release and self.tracer.enabled:
            self.tracer.emit(
                ev.SCALE_DOWN, now, function=function.name,
                released=len(plan.to_release),
            )

        launched: List[Instance] = []
        reclaimed: List[Instance] = []
        if plan.residual_rps > 0:
            reclaimed = self._reclaim(function, plan.residual_rps, now)
            residual = plan.residual_rps - sum(inst.r_up for inst in reclaimed)
            if residual > 1e-9:
                residual -= self._vertical_scale(function, active, residual, now)
            if residual > 1e-9:
                launched = self.scheduler.schedule(function, residual).instances
                for instance in launched:
                    instance.ready_at = now + function.model.cold_start_s
                    self.stats.cold_starts += 1
                    if self.tracer.enabled:
                        config = instance.config
                        self.tracer.emit(
                            ev.COLD_START, now, function=function.name,
                            instance=instance.instance_id,
                            ready_at=instance.ready_at,
                            config=[config.batch, config.cpu, config.gpu],
                        )
            self.stats.launches += len(launched) + len(reclaimed)
            if self.tracer.enabled and (launched or reclaimed):
                self.tracer.emit(
                    ev.SCALE_UP, now, function=function.name,
                    launched=len(launched), reclaimed=len(reclaimed),
                    residual_rps=plan.residual_rps,
                )
            active.extend(reclaimed)
            active.extend(launched)
            # Re-plan shares over the enlarged instance set.
            plan = plan_dispatch(active, rps, alpha=self.alpha, beta=self.scheduler.cluster.beta)

        for instance in active:
            instance.assigned_rate = plan.rates.get(instance.instance_id, 0.0)
            if (
                instance.state == InstanceState.COLD_STARTING
                and now >= instance.ready_at
            ):
                instance.state = InstanceState.ACTIVE

        return ControlOutcome(launched, reclaimed, dispatch_case=plan.case)


class HybridAutoScaler(AutoScaler):
    """Hybrid vertical + horizontal scaling (HAS-GPU-style).

    On overflow load the scaler first grows the SM quota of the
    function's live instances *in place* -- within the free units of
    the device each instance already occupies -- and only schedules new
    instances (paying a cold start) for whatever residual remains.
    Each resize re-prices the instance's ``t_exec`` and Eq. 1 rate
    range, so the dispatcher immediately dispatches into the added
    capacity; CPU share, memory footprint and batchsize stay fixed
    (an MPS quota can grow without a container restart, the rest
    cannot).
    """

    def _vertical_scale(
        self,
        function: FunctionSpec,
        active: List[Instance],
        residual_rps: float,
        now: float,
    ) -> float:
        gained = 0.0
        # Instance ids are deterministic across runs; the active list's
        # order also is, but sorting makes the resize order independent
        # of reclaim/launch history.
        for instance in sorted(active, key=lambda inst: inst.instance_id):
            need = residual_rps - gained
            if need <= 1e-9:
                break
            gained += self._try_grow(function, instance, need, now)
        return gained

    def _try_grow(
        self,
        function: FunctionSpec,
        instance: Instance,
        need_rps: float,
        now: float,
    ) -> float:
        """Grow one instance's SM quota; returns the ``r_up`` gain.

        Picks the smallest configured GPU share that covers the needed
        rate within the device's free units (or the largest-gain share
        when none does), re-predicts ``t_exec`` for the server's GPU
        generation and applies the resize through
        :meth:`Cluster.resize_placement`.
        """
        placement = instance.placement
        config = instance.config
        if placement is None or placement.gpu_device_id is None or config.gpu <= 0:
            return 0.0
        cluster = self.scheduler.cluster
        server = cluster.server(placement.server_id)
        if not server.healthy:
            return 0.0
        headroom = server.gpus[placement.gpu_device_id].free
        if headroom <= 0:
            return 0.0
        choices = sorted(
            g
            for g in set(self.scheduler.config_space.gpu_choices)
            if config.gpu < g <= config.gpu + headroom
        )
        if not choices:
            return 0.0
        rows = feasible_rows(
            self.scheduler.predictor, function.model, function.slo_s,
            [
                InstanceConfig(batch=config.batch, cpu=config.cpu, gpu=gpu)
                for gpu in choices
            ],
            self.scheduler.gpu_profile_for(placement.server_id),
        )
        old_r_up = instance.r_up
        best = None  # (gain, config, t_exec, bounds)
        for new_config, t_exec, bounds in rows:
            gain = bounds.r_up - old_r_up
            if gain <= 1e-9:
                continue
            if best is None or gain > best[0]:
                best = (gain, new_config, t_exec, bounds)
            if gain >= need_rps - 1e-9:
                # Smallest upgrade that covers the need wins.
                best = (gain, new_config, t_exec, bounds)
                break
        if best is None:
            return 0.0
        gain, new_config, t_exec, bounds = best
        new_resources = new_config.resources(
            memory_mb=placement.resources.memory_mb
        )
        instance.placement = cluster.resize_placement(placement, new_resources)
        instance.config = new_config
        instance.t_exec_pred = t_exec
        instance.bounds = bounds
        # The waiting deadline tightens/loosens with the new t_exec.
        instance.queue.timeout_s = instance.batch_timeout_s
        self.stats.vertical_resizes += 1
        if self.tracer.enabled:
            self.tracer.emit(
                ev.VERTICAL_RESIZE, now, function=function.name,
                instance=instance.instance_id, old_gpu=config.gpu,
                new_gpu=new_config.gpu, r_up=bounds.r_up,
            )
        return gain
