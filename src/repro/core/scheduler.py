"""Algorithm 1: greedy batch / resource / placement scheduling.

Given the residual RPS toward a function, the scheduler repeatedly
launches the most resource-efficient feasible instance until the load
is covered:

1. explore batchsizes in *descending* order (batching contributes most
   to throughput, section 5.2);
2. ``AvailableConfig`` keeps only configurations whose predicted
   ``t_exec`` satisfies the SLO (``t_exec <= t_slo`` for ``b = 1``,
   ``t_exec <= t_slo/2`` *and* ``R_k >= r_low`` otherwise, so batches
   saturate before the waiting deadline); :func:`feasible_rows` is
   its SLO half, shared by every caller that needs Eq. 1 rows;
3. score every (configuration, server) pair with Eq. 10's e_ij and
   place the argmax;
4. subtract the instance's ``r_up`` from the residual and repeat.

The search is exactly the paper's; the only engineering addition is a
best-fit shortcut: for a fixed configuration, e_ij is maximised by the
feasible server with the least weighted free capacity, so each
configuration scans servers in ascending free order instead of scoring
all ``m`` of them.  On a mixed-generation fleet each GPU generation
prices the ``<b, c, g>`` grid separately, so the shortcut runs per
generation: the ascending index is kept once for the whole fleet and
once per generation (each in the same order), and a row priced for one
generation scans only its servers.  CPU-only rows fit any server and
scan the whole index.  A homogeneous fleet is the case with no extra
generations: its one index serves every row.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.fleet import GpuProfile, profile_map
from repro.cluster.resources import ResourceVector
from repro.core import efficiency as _efficiency
from repro.core.batching import RateBounds, cached_rate_bounds
from repro.core.efficiency import rps_per_resource
from repro.core.function import FunctionSpec
from repro.core.instance import Instance, InstanceState
from repro.models.zoo import ModelSpec
from repro.profiling.configspace import ConfigSpace, InstanceConfig
from repro.profiling.predictor import LatencyPredictor


class SchedulingError(RuntimeError):
    """No feasible configuration fits anywhere in the cluster."""


@dataclass
class SchedulingOutcome:
    """Result of covering (part of) a function's residual RPS."""

    instances: List[Instance] = field(default_factory=list)
    leftover_rps: float = 0.0

    @property
    def placed_capacity(self) -> float:
        """Total RPS capacity (sum of ``r_up``) of the placed instances."""
        return sum(inst.r_up for inst in self.instances)


#: alias kept for the public API: a scheduled instance IS an Instance.
ScheduledInstance = Instance


def feasible_rows(
    predictor: LatencyPredictor,
    model: ModelSpec,
    slo_s: float,
    configs: Sequence[InstanceConfig],
    gpu_profile: Optional[GpuProfile] = None,
) -> List[Tuple[InstanceConfig, float, RateBounds]]:
    """Algorithm 1's ``AvailableConfig`` rule over ``configs``.

    Reads every config's ``t_exec`` from the predictor's priced grid in
    one call (GPU configs at ``gpu_profile``'s generation) and keeps
    the (config, t_exec, bounds) rows whose Eq. 1 window exists:
    ``t_exec <= t_slo`` for ``b = 1``, ``t_exec <= t_slo/2`` otherwise.
    The residual-load filter (``R_k >= r_low``) is the caller's.
    """
    rows = []
    times = predictor.predict_configs(model, configs, gpu_profile)
    for config, t_exec in zip(configs, times):
        bounds = cached_rate_bounds(t_exec, slo_s, config.batch)
        if bounds is not None:
            rows.append((config, t_exec, bounds))
    return rows


class GreedyScheduler:
    """The Schedule() procedure of Algorithm 1.

    Args:
        cluster: the cluster to place instances on.
        predictor: the COP latency predictor supplying
            ``t_exec = f(b, c, g)``.
        config_space: discrete ``<b, c, g>`` choices to explore.
    """

    def __init__(
        self,
        cluster: Cluster,
        predictor: LatencyPredictor,
        config_space: Optional[ConfigSpace] = None,
        dynamic_beta: bool = True,
        selection: str = "efficiency",
    ) -> None:
        if selection not in ("efficiency", "max_rps", "max_density"):
            raise ValueError(
                "selection must be 'efficiency', 'max_rps' or 'max_density'"
            )
        self.cluster = cluster
        self.predictor = predictor
        self.config_space = config_space or ConfigSpace()
        #: "efficiency" is Algorithm 1's Eq. 10 scoring; "max_rps" is
        #: the RS-ablation of Fig. 11 ("selecting only the resource
        #: configuration with the maximum throughput").
        self.selection = selection
        #: (model, slo, batch[, generation rate]) -> feasible (config,
        #: t_exec, bounds) rows independent of the residual-load
        #: filter; predictions do not change between scheduling calls,
        #: so this is safe to cache.  The rows depend on the model and
        #: the SLO only, never on the function's name, so functions
        #: sharing both share one row list (a 120-function fleet needs
        #: about half as many).
        self._config_cache: Dict[Tuple, List[Tuple]] = {}
        #: batch -> one InstanceConfig per (cpu, gpu) pair, in
        #: ``resource_pairs`` order, shared by every row of that batch.
        self._batch_configs: Dict[int, List[InstanceConfig]] = {}
        #: (model, b, c, g) -> ResourceVector; the memory footprint of
        #: a configuration is a pure function of its key.
        self._resources_cache: Dict[Tuple, ResourceVector] = {}
        #: ascending weighted-free server index, cached across
        #: schedule() calls and invalidated via Cluster.version (and
        #: re-keyed whenever the efficiency beta moves).
        self._free_index: Optional[List[Tuple[float, int]]] = None
        #: generation name (None: the calibration baseline) -> its
        #: servers' rows of ``_free_index``, in the same order.  Only
        #: kept on a mixed fleet.
        self._free_by_generation: Dict[Optional[str], List[Tuple[float, int]]] = {}
        self._free_index_version: int = -1
        self._free_index_beta: float = float("nan")
        self._beta_cache: Tuple[int, float] = (-1, 0.0)
        #: re-price the CPU/GPU conversion factor by *remaining*
        #: cluster resources at each placement: when GPUs deplete,
        #: beta falls and CPU-lean/CPU-only configurations win the
        #: efficiency race (and vice versa).  This is the scheduler's
        #: reading of the paper's "evaluate the best beta" -- a static
        #: FLOPS ratio strands whichever resource runs out first.
        self.dynamic_beta = dynamic_beta
        #: server_id -> non-default GPU generation.  Empty on the
        #: homogeneous baseline fleet, which keeps every default code
        #: path (cache keys, scan order) bit-identical.
        self._gpu_profiles: Dict[int, GpuProfile] = profile_map(cluster)
        #: distinct non-default generations, name-sorted for
        #: deterministic candidate enumeration; the leading ``None``
        #: stands for the calibration baseline and also supplies the
        #: generation-independent CPU-only rows.
        profiles: Dict[str, GpuProfile] = {}
        for profile in self._gpu_profiles.values():
            if profiles.setdefault(profile.name, profile) != profile:
                # The free-capacity index buckets servers by name.
                raise ValueError(
                    f"two different GPU generations are named {profile.name!r}"
                )
        self._profile_order: List[Optional[GpuProfile]] = [None] + [
            profiles[name] for name in sorted(profiles)
        ]
        #: server_id -> generation name, the key of
        #: ``_free_by_generation`` (baseline servers are absent: None).
        self._generation_of: Dict[int, str] = {
            server_id: profile.name
            for server_id, profile in self._gpu_profiles.items()
        }
        #: optional :class:`~repro.workflows.coplace.CoPlacementHint`:
        #: when attached (workflow runs), placement prefers servers
        #: already hosting adjacent DAG stages, accepting them only
        #: within the hint's Eq. 10 score tolerance and never relaxing
        #: feasibility.  None (the default) keeps every existing code
        #: path bit-identical.
        self.coplacement = None

    def gpu_profile_for(self, server_id: int) -> Optional[GpuProfile]:
        """The server's non-default GPU generation (None = baseline)."""
        return self._gpu_profiles.get(server_id)

    def _efficiency_beta(self) -> float:
        """The beta used inside Eq. 10 at the current cluster state."""
        if not self.dynamic_beta:
            return self.cluster.beta
        version, cached = self._beta_cache
        if version == self.cluster.version:
            return cached
        # O(1): the cluster maintains these totals incrementally (they
        # span all servers, healthy or not, exactly like the per-server
        # sum they replace).
        free_cpu = self.cluster.free_cpu_total
        free_gpu = self.cluster.free_gpu_total
        beta = 1e4 if free_cpu <= 0 else max(0.05, min(1e4, free_gpu / free_cpu))
        self._beta_cache = (self.cluster.version, beta)
        return beta

    # ------------------------------------------------------------------
    # AvailableConfig (Algorithm 1, lines 16-27)
    # ------------------------------------------------------------------
    def available_configs(
        self,
        function: FunctionSpec,
        batch: int,
        residual_rps: float,
        gpu_profile: Optional[GpuProfile] = None,
    ) -> List[Tuple[InstanceConfig, float, RateBounds]]:
        """Feasible ``<b, c, g>`` configurations for one batchsize.

        Returns (config, t_exec, bounds) triples that satisfy the SLO
        constraints and, for ``b > 1``, can be saturated by the
        residual load (``R_k >= r_low``).  With ``gpu_profile`` set the
        rows are priced for that GPU generation (and CPU-only pairs are
        skipped -- they are generation-independent and already covered
        by the profile-free rows).  A cache miss builds the rows with
        :func:`feasible_rows`.
        """
        if gpu_profile is None:
            cache_key = (function.model.name, function.slo_s, batch)
        else:
            # Rows are priced by the generation's rate, not its name.
            cache_key = (
                function.model.name, function.slo_s, batch,
                gpu_profile.total_gflops,
            )
        rows = self._config_cache.get(cache_key)
        if rows is None:
            configs = self._batch_configs.get(batch)
            if configs is None:
                configs = list(self.config_space.configs_for_batch(batch))
                self._batch_configs[batch] = configs
            if gpu_profile is not None:
                configs = [config for config in configs if config.gpu]
            rows = feasible_rows(
                self.predictor, function.model, function.slo_s, configs,
                gpu_profile,
            )
            self._config_cache[cache_key] = rows
        return [
            row
            for row in rows
            if batch == 1 or residual_rps >= row[2].r_low
        ]

    # ------------------------------------------------------------------
    # placement helpers
    # ------------------------------------------------------------------
    def _instance_resources(
        self, function: FunctionSpec, config: InstanceConfig
    ) -> ResourceVector:
        key = (function.model.name, config.batch, config.cpu, config.gpu)
        cached = self._resources_cache.get(key)
        if cached is None:
            memory = int(round(function.model.memory_mb(config.batch)))
            cached = config.resources(memory_mb=memory)
            self._resources_cache[key] = cached
        return cached

    def _best_server_for(
        self,
        resources: ResourceVector,
        beta: float,
        generation: Optional[GpuProfile],
        allowed: Optional[Set[int]] = None,
    ) -> Optional[int]:
        """Feasible server with the least weighted free capacity.

        Scans the index :meth:`_sorted_free` keeps; ``beta`` must be
        the beta it was keyed with (the efficiency beta): mixing betas
        between the bisect cost and the index keys breaks the best-fit
        shortcut's argmax property.

        A GPU row is priced for one ``generation`` (None is the
        calibration baseline), so on a mixed fleet it only fits servers
        of that generation and scans that generation's index; CPU-only
        rows fit any server and scan the whole fleet's.  ``allowed``
        restricts the scan to a server-id set (co-placement).
        """
        gpu = resources.gpu
        if gpu and self._generation_of:
            rows = self._free_by_generation[
                None if generation is None else generation.name
            ]
        else:
            rows = self._free_index
        cost = resources.weighted(beta)
        # Skip servers whose weighted free capacity cannot cover the
        # weighted cost, then scan upward for a true fit (single-GPU
        # quota and memory can still rule a server out).  The checks
        # are Server.can_fit inlined: this scan probes millions of
        # servers per large-scale sweep and the two call frames per
        # probe (lookup + can_fit) dominate its cost.  The ``allowed``
        # test comes last, so it runs once per scan, on the winner.
        start = bisect.bisect_left(rows, (cost - 1e-9, -1))
        server_of = self.cluster.server
        cpu = resources.cpu
        memory = resources.memory_mb
        gpu_ok = 0 < gpu <= 100
        for index in range(start, len(rows)):
            server_id = rows[index][1]
            server = server_of(server_id)
            if (
                server.healthy
                and cpu <= server.cpu_free
                and memory <= server.memory_free_mb - server.swap_reserved_mb
                and (
                    gpu == 0
                    or (gpu_ok and gpu <= server.gpu_free_max)
                )
                and (allowed is None or server_id in allowed)
            ):
                return server_id
        return None

    def _sorted_free(self) -> List[Tuple[float, int]]:
        """The ascending free-capacity index, rebuilt only when stale.

        Keyed with the *efficiency* beta so the best-fit shortcut ranks
        servers exactly as Eq. 10 would score them; under dynamic beta
        the static ``cluster.beta`` ordering can disagree with the
        argmax once the free CPU/GPU ratio drifts.  A rebuild also
        rebuilds every generation's index.
        """
        beta = self._efficiency_beta()
        if (
            self._free_index is None
            or self._free_index_version != self.cluster.version
            or self._free_index_beta != beta
        ):
            self._rebuild_free_index(beta)
        return self._free_index

    def _rebuild_free_index(self, beta: float) -> None:
        """Re-key every server at ``beta``: the whole fleet's index and,
        on a mixed fleet, each generation's (same order, one pass)."""
        rows = self.cluster.sorted_weighted_free(beta)
        self._free_index = rows
        if self._generation_of:
            by_generation = {
                None if profile is None else profile.name: []
                for profile in self._profile_order
            }
            generation_of = self._generation_of.get
            for row in rows:
                by_generation[generation_of(row[1])].append(row)
            self._free_by_generation = by_generation
        self._free_index_version = self.cluster.version
        self._free_index_beta = beta

    # ------------------------------------------------------------------
    # Schedule() (Algorithm 1, lines 1-15)
    # ------------------------------------------------------------------
    def schedule(
        self,
        function: FunctionSpec,
        residual_rps: float,
        allow_partial: bool = True,
        max_instances: Optional[int] = None,
    ) -> SchedulingOutcome:
        """Launch instances covering ``residual_rps`` for the function.

        Args:
            function: the function to scale out.
            residual_rps: the load existing instances cannot absorb.
            allow_partial: when the cluster fills up, return what was
                placed (with ``leftover_rps`` set) instead of raising.

        Raises:
            SchedulingError: cluster exhausted and ``allow_partial`` is
                False.
        """
        if residual_rps < 0:
            raise ValueError("residual_rps must be non-negative")
        outcome = SchedulingOutcome()
        remaining = residual_rps
        batches = [
            b
            for b in self.config_space.batches_descending()
            if b <= function.model.max_batch
        ]
        self._sorted_free()

        while remaining > 1e-9:
            if max_instances is not None and len(outcome.instances) >= max_instances:
                break
            placed = self._schedule_one(function, remaining, batches)
            if placed is None:
                if allow_partial:
                    break
                raise SchedulingError(
                    f"{function.name}: no feasible placement for residual"
                    f" {remaining:.1f} RPS"
                )
            outcome.instances.append(placed)
            remaining = max(0.0, remaining - placed.r_up)

        outcome.leftover_rps = remaining
        return outcome

    def _schedule_one(
        self,
        function: FunctionSpec,
        remaining: float,
        batches: Sequence[int],
    ) -> Optional[Instance]:
        """One iteration of the outer while loop: place one instance."""
        for batch in batches:
            if self.selection == "efficiency":
                best = self._select_placement(function, batch, remaining)
            else:
                best = self._select_greedy(function, batch, remaining)
            if best is None:
                continue  # try the next largest batchsize
            config, t_exec, bounds, server_id = best
            resources = self._instance_resources(function, config)
            placement = self.cluster.allocate(server_id, resources)
            self._update_sorted_free(server_id)
            if self.coplacement is not None:
                self.coplacement.record(function.name, server_id)
            return Instance(
                function=function,
                config=config,
                t_exec_pred=t_exec,
                bounds=bounds,
                placement=placement,
                state=InstanceState.COLD_STARTING,
            )
        return None

    def _select_placement(self, function, batch, remaining):
        """Argmax of e_ij over feasible (config, generation, server) triples.

        The candidate pool holds the profile-free rows first (CPU-only
        rows may land on any server, GPU rows on baseline servers),
        then each non-default generation's GPU rows in
        ``_profile_order``; a homogeneous fleet has no such generations,
        so its pool is exactly :meth:`available_configs`.  Densities
        are normalised across the whole pool so Eq. 10 compares
        generations against each other.

        The Eq. 2 objective minimises the resources used for the
        *given* workload, so an instance's useful rate is capped at the
        residual it will actually serve: ``min(r_up, R_k)``.  Under
        stress this is exactly ``r_up``; at low load it steers the
        metric toward the smallest configuration that covers the
        residual instead of an over-sized high-capacity one.
        """
        pool = [
            (config, t_exec, bounds, generation)
            for generation in self._profile_order
            for config, t_exec, bounds in self.available_configs(
                function, batch, remaining, gpu_profile=generation
            )
        ]
        if not pool:
            return None
        beta = self._efficiency_beta()
        densities = [
            rps_per_resource(
                min(bounds.r_up, remaining), config.cpu, config.gpu, beta
            )
            for config, _t, bounds, _g in pool
        ]
        normaliser = max(densities)
        # Eq. 10 inlined: the density term was already computed for the
        # normaliser above, so the per-pair score only needs the
        # fragmentation denominator.  Identical float-op order to
        # resource_efficiency() -- scores (and therefore placements)
        # are bit-identical; the module attribute is still read per
        # call so ablations may vary FRAGMENTATION_FLOOR.
        floor = _efficiency.FRAGMENTATION_FLOOR
        server_of = self.cluster.server
        hint = self.coplacement
        preferred = (
            hint.preferred_servers(function.name)
            if hint is not None and hint.tracks(function.name)
            else ()
        )
        best_score = -1.0
        best = None
        pref_score = -1.0
        pref_best = None
        for (config, t_exec, bounds, generation), density in zip(pool, densities):
            resources = self._instance_resources(function, config)
            server_id = self._best_server_for(resources, beta, generation)
            if server_id is None:
                continue
            server = server_of(server_id)
            instance_cost = beta * config.cpu + config.gpu
            server_cost = beta * server.cpu_free + server.gpu_free
            scaled = min(1.0, density / normaliser)
            score = scaled / max(1.0 - instance_cost / server_cost, floor)
            if score > best_score:
                best_score = score
                best = (config, t_exec, bounds, server_id)
            if preferred and server_id not in preferred:
                pref_id = self._best_server_for(
                    resources, beta, generation, preferred
                )
                if pref_id is not None:
                    pserver = server_of(pref_id)
                    p_cost = beta * pserver.cpu_free + pserver.gpu_free
                    p_score = scaled / max(
                        1.0 - instance_cost / p_cost, floor
                    )
                    if p_score > pref_score:
                        pref_score = p_score
                        pref_best = (config, t_exec, bounds, pref_id)
        if preferred and best is not None:
            # Prefer a server hosting an adjacent stage when its score
            # stays within the tolerance of the unconstrained argmax.
            if best[3] in preferred:
                hint.observe(True)
            elif (
                pref_best is not None
                and pref_score >= hint.tolerance * best_score
            ):
                hint.observe(True)
                best = pref_best
            else:
                hint.observe(False)
        return best

    def _select_greedy(self, function, batch, remaining):
        """Packing-blind selection used by the RS ablations of Fig. 11.

        Config choice ignores Eq. 10 and placement degrades to
        first-fit (uniform platforms' behaviour) -- both halves of the
        resource-scheduling component are off.  Rows are priced at the
        calibration baseline on every fleet.
        """
        candidates = self.available_configs(function, batch, remaining)
        beta = self.cluster.beta

        def key(row):
            if self.selection == "max_rps":
                return row[2].r_up
            return rps_per_resource(
                min(row[2].r_up, remaining), row[0].cpu, row[0].gpu, beta
            )

        for config, t_exec, bounds in sorted(candidates, key=key, reverse=True):
            resources = self._instance_resources(function, config)
            for server in self.cluster.servers:
                if server.can_fit(resources):
                    return (config, t_exec, bounds, server.server_id)
        return None

    def _update_sorted_free(self, server_id: int) -> None:
        """Re-key the index after our own allocation.

        An allocation moves the free CPU/GPU ratio, so under dynamic
        beta *every* key may be stale, not just the touched server's;
        rebuild every index when beta moved, else re-key the one
        server in the fleet's index and in its generation's.
        """
        beta = self._efficiency_beta()
        if beta != self._free_index_beta:
            self._rebuild_free_index(beta)
            return
        row = (self.cluster.server(server_id).weighted_free(beta), server_id)
        indexes = [self._free_index]
        if self._generation_of:
            indexes.append(
                self._free_by_generation[self._generation_of.get(server_id)]
            )
        for rows in indexes:
            for index, (_key, sid) in enumerate(rows):
                if sid == server_id:
                    del rows[index]
                    break
            bisect.insort(rows, row)
        # The index now reflects the cluster state after our own
        # allocation; keep the cache valid across schedule() calls.
        self._free_index_version = self.cluster.version

    # ------------------------------------------------------------------
    # release
    # ------------------------------------------------------------------
    def release(self, instance: Instance) -> None:
        """Return an instance's resources to the cluster."""
        if instance.placement is not None:
            if self.coplacement is not None:
                self.coplacement.forget(
                    instance.function.name, instance.placement.server_id
                )
            self.cluster.release(instance.placement)
            instance.placement = None
        instance.state = InstanceState.TERMINATED

