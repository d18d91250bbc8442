"""Per-function fluid state: the ODE variables and their flow terms.

One :class:`FunctionFluid` evolves a single function's state vector

* ``lambda(t)`` -- the arrival rate, read directly off the trace;
* ``q(t)`` -- queue depth (requests waiting for a batch slot);
* ``n(t)`` -- warm / cold-starting instance counts per configuration;

under the same control laws the discrete-event runtime applies each
tick: Eq. 1 capacity windows bound what an instance may admit, the
greedy ladder mirrors Algorithm 1's batch-descending configuration
search, and retirement/reclaim reproduce the keep-alive windows as a
flow between the active set and the warm pool.  Latency is a
batching-delay approximation: a FIFO arrival clock yields the exact
fluid backlog wait, and stratified Erlang batch-fill atoms (position
``j`` of a ``b``-batch waits for ``b - j`` further Poisson arrivals,
capped by the batch timeout) reproduce the fill-time tail that
dominates the discrete engine's percentiles.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.dispatcher import ALPHA_DEFAULT
from repro.core.efficiency import rps_per_resource
from repro.core.function import FunctionSpec
from repro.core.scheduler import feasible_rows
from repro.profiling.configspace import ConfigSpace
from repro.profiling.executor import GroundTruthExecutor
from repro.profiling.predictor import LatencyPredictor
from repro.simulation.sketches import QuantileSketch
from repro.workloads.trace import Trace

#: deterministic stratification of the log-normal execution noise:
#: (z-score, probability mass) pairs at the decile midpoints of the
#: quintiles, so the atoms reproduce the executor's noise spread
#: without sampling.
NOISE_ATOMS: Sequence[Tuple[float, float]] = (
    (-1.2816, 0.2),
    (-0.5244, 0.2),
    (0.0, 0.2),
    (0.5244, 0.2),
    (1.2816, 0.2),
)

#: strata across the in-batch waiting position (capped by the batch).
FILL_ATOMS = 8

#: finer z-stratification for the batch-fill wait: report percentiles
#: (p99 especially) live in the fill distribution's tail, so the top
#: decile is split down to its p99.5 midpoint instead of being
#: collapsed onto the p90 atom the execution noise uses.
FILL_Z_ATOMS: Sequence[Tuple[float, float]] = (
    (-1.2816, 0.2),
    (-0.5244, 0.2),
    (0.0, 0.2),
    (0.5244, 0.2),
    (1.0364, 0.1),
    (1.5141, 0.07),
    (2.0537, 0.02),
    (2.5758, 0.01),
)


def _erlang_quantile(k: float, rate: float, z: float) -> float:
    """Wilson-Hilferty quantile of an Erlang(k, rate) waiting time.

    The wait for ``k`` further Poisson arrivals at ``rate`` is
    Gamma(k, rate); the Wilson-Hilferty cube transform maps a standard
    normal z-score to its quantile with relative error well under the
    sketch resolution for the shapes batching produces (k in 1..15).
    """
    if k <= 0.0 or rate <= 0.0:
        return 0.0
    c = 1.0 - 1.0 / (9.0 * k) + z * math.sqrt(1.0 / (9.0 * k))
    if c <= 0.0:
        return 0.0
    return (k / rate) * c * c * c


@dataclass(frozen=True)
class ConfigRow:
    """One feasible instance configuration and its derived rates.

    ``r_low``/``r_up`` are Eq. 1's admission window from the predicted
    execution time (what the scheduler reasons with); ``t_exec_actual``
    is the executor's noise-free mean (what batches really take), which
    sets the true service rate.
    """

    batch: int
    cpu: int
    gpu: int
    t_exec_pred: float
    t_exec_actual: float
    r_low: float
    r_up: float
    weighted_cost: float
    timeout_s: float

    @property
    def key(self) -> Tuple[int, int, int]:
        """The ``(b, c, g)`` histogram key the reports use."""
        return (self.batch, self.cpu, self.gpu)

    @property
    def service_rps(self) -> float:
        """Sustained requests/second of one instance of this config.

        Uses the *actual* batch time: the discrete runtime's
        instances are work-conserving, so their throughput ceiling is
        set by what batches really take, not by the (safety-padded)
        prediction the admission window was derived from.
        """
        return self.batch / self.t_exec_actual


class CapacityLadder:
    """Algorithm 1's configuration search, detached from placement.

    Mirrors the greedy scheduler's batch-descending exploration and
    density scoring against a uniform, uncontended cluster: for each
    residual load it returns the instance mix the scheduler would
    launch when servers are interchangeable.  Built once per function;
    every query is a cheap scan over the precomputed feasible rows.
    """

    def __init__(
        self,
        function: FunctionSpec,
        predictor: LatencyPredictor,
        executor: GroundTruthExecutor,
        beta: float,
        config_space: Optional[ConfigSpace] = None,
    ) -> None:
        self.function = function
        self.beta = beta
        space = config_space or ConfigSpace()
        self._rows_by_batch: Dict[int, List[ConfigRow]] = {}
        self.batches = [
            b for b in space.batches_descending() if b <= function.model.max_batch
        ]
        for batch in self.batches:
            rows = [
                ConfigRow(
                    batch=batch,
                    cpu=config.cpu,
                    gpu=config.gpu,
                    t_exec_pred=t_pred,
                    t_exec_actual=executor.mean_execution_time(
                        function.model, batch, config.cpu, config.gpu
                    ),
                    r_low=bounds.r_low,
                    r_up=bounds.r_up,
                    weighted_cost=beta * config.cpu + config.gpu,
                    timeout_s=max(0.0, function.slo_s - t_pred),
                )
                for config, t_pred, bounds in feasible_rows(
                    predictor, function.model, function.slo_s,
                    list(space.configs_for_batch(batch)),
                )
            ]
            if rows:
                self._rows_by_batch[batch] = rows

    def best_config(self, residual_rps: float) -> Optional[ConfigRow]:
        """The configuration Algorithm 1 would launch for ``residual``.

        Batchsizes descend; the first batch with a feasible,
        saturatable row wins on Eq. 10's density score capped at the
        residual (the scheduler's ``min(r_up, R_k)`` rule).
        """
        for batch in self.batches:
            rows = self._rows_by_batch.get(batch)
            if not rows:
                continue
            best: Optional[ConfigRow] = None
            best_score = -1.0
            for row in rows:
                if batch > 1 and residual_rps < row.r_low:
                    continue
                score = rps_per_resource(
                    min(row.r_up, residual_rps), row.cpu, row.gpu, self.beta
                )
                if score > best_score:
                    best_score = score
                    best = row
            if best is not None:
                return best
        return None

    def plan(self, residual_rps: float) -> List[ConfigRow]:
        """The greedy instance mix covering ``residual_rps``."""
        plan: List[ConfigRow] = []
        remaining = residual_rps
        while remaining > 1e-9:
            row = self.best_config(remaining)
            if row is None:
                break
            plan.append(row)
            remaining = max(0.0, remaining - row.r_up)
        return plan


class _ArrivalClock:
    """FIFO inversion of the cumulative arrival curve.

    Serving ``m`` units of fluid at time ``t`` must charge them the
    wait since *their* arrival, not the backlog ahead of the work
    arriving now.  The clock keeps the unserved arrival mass as
    ``(mass, start, end)`` segments (arrivals spread uniformly over
    their tick) and pops mass FIFO, returning per-piece mean waits.
    """

    __slots__ = ("_segments",)

    def __init__(self) -> None:
        self._segments: deque = deque()

    def push(self, mass: float, start: float, end: float) -> None:
        """Append a tick's arrival mass, spread over ``[start, end)``."""
        if mass > 0.0:
            self._segments.append([mass, start, end])

    @property
    def pending(self) -> float:
        """Unserved arrival mass still waiting on the clock."""
        return math.fsum(segment[0] for segment in self._segments)

    def drop_tail(self, mass: float) -> float:
        """Discard the newest ``mass`` units (queue-cap overflow)."""
        remaining = mass
        while remaining > 1e-12 and self._segments:
            segment = self._segments[-1]
            take = min(segment[0], remaining)
            segment[0] -= take
            remaining -= take
            if segment[0] <= 1e-12:
                self._segments.pop()
        return mass - remaining

    def serve(
        self, mass: float, now: float, rate: float
    ) -> List[Tuple[float, float]]:
        """Pop ``mass`` units FIFO; returns ``(mean_wait, mass)`` pieces.

        Service runs *continuously* from ``now`` at ``rate``: the unit
        at cumulative FIFO position ``x`` departs at
        ``max(arrival, now + x/rate)``, the exact fluid-FIFO departure
        curve for a constant-rate server.  (Serving everything at the
        tick boundary instead would charge every request a spurious
        half-tick of discretization delay.)
        """
        pieces: List[Tuple[float, float]] = []
        remaining = mass
        position = 0.0
        while remaining > 1e-12 and self._segments:
            segment = self._segments[0]
            seg_mass, start, end = segment
            take = min(seg_mass, remaining)
            # The popped fraction occupies the oldest part of the
            # segment's uniform arrival window.
            frac = take / seg_mass
            piece_end = start + (end - start) * frac
            mean_arrival = 0.5 * (start + piece_end)
            if rate > 0.0:
                departure = now + (position + 0.5 * take) / rate
            else:
                departure = now
            pieces.append((max(0.0, departure - mean_arrival), take))
            segment[0] -= take
            segment[1] = piece_end
            position += take
            remaining -= take
            if segment[0] <= 1e-12:
                self._segments.popleft()
        return pieces


class FunctionFluid:
    """One function's fluid state vector and flow integrator."""

    #: horizon (seconds) over which standing backlog is folded into
    #: scale-out demand; see :meth:`control`.
    DRAIN_WINDOW_S = 2.0

    #: per-instance bounded queue depths mirroring the discrete
    #: runtime's overflow rule: a busy instance holds at most
    #: ``WAITING_BATCHES`` batches, a cold-starting one buffers up to
    #: ``COLD_QUEUE_BATCHES`` while it warms.
    WAITING_BATCHES = 2
    COLD_QUEUE_BATCHES = 64

    def __init__(
        self,
        function: FunctionSpec,
        trace: Trace,
        ladder: CapacityLadder,
        *,
        ewma: float,
        alpha: float = ALPHA_DEFAULT,
        keepalive_s: float,
        pending_cap: int,
        warmup_s: float,
        noise_sigma: float,
        rate_mode: str = "measured",
    ) -> None:
        if rate_mode not in ("measured", "oracle"):
            raise ValueError("rate_mode must be 'measured' or 'oracle'")
        self.function = function
        self.trace = trace
        self.ladder = ladder
        self.ewma = ewma
        self.rate_mode = rate_mode
        self.alpha = alpha
        self.keepalive_s = keepalive_s
        self.pending_cap = float(pending_cap)
        self.warmup_s = warmup_s
        self.noise_sigma = noise_sigma
        # -- state vector ----------------------------------------------
        self.queue = 0.0
        self.rate_estimate = 0.0
        self._measured_prev = 0.0
        #: active instances: one ConfigRow per running instance.
        self.active: List[ConfigRow] = []
        #: cold-starting instances and when they become ready.
        self.launching: List[Tuple[float, ConfigRow]] = []
        #: warm pool: (expires_at, entered_at, ConfigRow) reserved
        #: entries, holding their resources until expiry or reclaim.
        self.warm_pool: List[Tuple[float, float, ConfigRow]] = []
        self._clock = _ArrivalClock()
        # -- flow ledger (floats; rounded only at report time) ---------
        self.arrived_all = 0.0
        self.arrived_kept = 0.0
        self.served_all = 0.0
        self.served_kept = 0.0
        self.dropped_all = 0.0
        self.dropped_kept = 0.0
        self.violations_kept = 0.0
        self.latency_sum = 0.0
        self.queue_wait_sum = 0.0
        self.exec_sum = 0.0
        self.batch_hist: Dict[int, float] = {}
        self.config_hist: Dict[Tuple[int, int, int], float] = {}
        self.launches = 0
        self.cold_starts = 0
        self.warm_reuses = 0
        self.batches_served = 0.0
        self.sketch = QuantileSketch()
        self._sketch_carry = 0.0
        # -- usage integrals (sample-and-hold over ticks) --------------
        self.resource_time_weighted = 0.0
        self.cpu_core_seconds = 0.0
        self.gpu_percent_seconds = 0.0
        self.usage_kept_sum = 0.0
        self.usage_kept_count = 0
        self.usage_peak = 0.0
        self.reserved_idle_weighted_s = 0.0

    # ------------------------------------------------------------------
    # capacity views
    # ------------------------------------------------------------------
    @property
    def capacity_rps(self) -> float:
        """Eq. 1 admission capacity of the active set (sum of r_up)."""
        return math.fsum(row.r_up for row in self.active)

    @property
    def service_rps(self) -> float:
        """Sustained service rate of the active set."""
        return math.fsum(row.service_rps for row in self.active)

    def ledger(self) -> Dict[str, float]:
        """The conservation ledger the flow invariant audits."""
        return {
            "arrived": self.arrived_all,
            "served": self.served_all,
            "dropped": self.dropped_all,
            "queued": self.queue,
            "clock_pending": self._clock.pending,
            "active": float(len(self.active)),
            "launching": float(len(self.launching)),
            "warm_pool": float(len(self.warm_pool)),
            "capacity_rps": self.capacity_rps,
            "rate_estimate": self.rate_estimate,
        }

    # ------------------------------------------------------------------
    # control flow (mirrors one runtime control tick)
    # ------------------------------------------------------------------
    def control(self, now: float) -> None:
        """Rate estimation + scale-out/retire, as the autoscaler does."""
        if self.rate_mode == "oracle":
            # The runtime's oracle mode reads the trace directly; with
            # both engines in oracle mode the control trajectories
            # align, which is how the validation envelope isolates
            # flow/latency-model error from controller-noise error.
            estimate = self.trace.rps_at(now)
        else:
            estimate = (
                self.ewma * self._measured_prev
                + (1.0 - self.ewma) * self.rate_estimate
            )
        self.rate_estimate = estimate
        self._drop_expired_warm(now)
        capacity = self.capacity_rps + math.fsum(
            row.r_up for _ready, row in self.launching
        )
        # Backlog-aware demand: the discrete runtime's noisy per-tick
        # rate estimates cross the scale-out trigger whenever a queue
        # is building, pulling in spillover instances the smooth fluid
        # estimate would never request.  Folding the backlog in as
        # "drain it within DRAIN_WINDOW_S" reproduces that mean
        # behaviour deterministically.  The boost only applies to a
        # *capacity* shortage (active set up, nothing launching): a
        # backlog accrued during a cold start drains by itself once the
        # instances are ready, and DES never sizes launches by it.
        backlog_boost = 0.0
        if self.active and not self.launching:
            backlog_boost = self.queue / self.DRAIN_WINDOW_S
        demand = estimate + backlog_boost
        if demand > capacity + 1e-9:
            self._scale_out(demand - capacity, now)
        elif len(self.active) > 1 and self.queue <= 1e-6:
            # Case (iii) needs releasable (idle, empty-queue)
            # instances; with fluid backlog outstanding there are none.
            self._scale_down(estimate, now)

    def _scale_out(self, residual: float, now: float) -> None:
        remaining = residual
        kept_count = now >= self.warmup_s
        # Reclaim reserved warm instances first: zero cold start, the
        # paper's keep-alive payoff.  The reserved interval is charged
        # as policy waste, exactly as the autoscaler's ledger does.
        kept: List[Tuple[float, float, ConfigRow]] = []
        for expires_at, entered_at, row in self.warm_pool:
            usable = (
                remaining > 1e-9
                and now < expires_at
                and (row.batch == 1 or remaining >= row.r_low)
            )
            if usable:
                self.active.append(row)
                self.reserved_idle_weighted_s += (
                    max(0.0, now - entered_at) * row.weighted_cost
                )
                if kept_count:
                    self.warm_reuses += 1
                    self.launches += 1
                remaining = max(0.0, remaining - row.r_up)
            else:
                kept.append((expires_at, entered_at, row))
        self.warm_pool = kept
        if remaining <= 1e-9:
            return
        cold_s = self.function.model.cold_start_s
        for row in self.ladder.plan(remaining):
            self.launching.append((now + cold_s, row))
            if kept_count:
                self.launches += 1
                self.cold_starts += 1

    def _scale_down(self, estimate: float, now: float) -> None:
        # Case (iii) of the dispatcher: retire the least-efficient
        # instance while the load sits below the lower trigger and the
        # survivors still cover it.
        while len(self.active) > 1:
            r_min = math.fsum(row.r_low for row in self.active)
            r_max = self.capacity_rps
            trigger = self.alpha * r_min + (1.0 - self.alpha) * r_max
            if estimate >= trigger:
                break
            candidate = min(
                range(len(self.active)),
                key=lambda i: (
                    rps_per_resource(
                        self.active[i].r_up,
                        self.active[i].cpu,
                        self.active[i].gpu,
                        self.ladder.beta,
                    ),
                    i,
                ),
            )
            row = self.active[candidate]
            if r_max - row.r_up < estimate:
                break
            del self.active[candidate]
            self.warm_pool.append((now + self.keepalive_s, now, row))

    def _queue_capacity(self) -> float:
        """Total backlog the bounded per-instance queues can hold.

        Mirrors the discrete runtime's overflow rule (requests beyond
        it drop as ``queue_full``): each active instance queues up to
        ``WAITING_BATCHES`` batches.  The deep ``COLD_QUEUE_BATCHES``
        buffer only applies during a cold-start phase (no instance up
        yet); once instances are active, arrivals route to them and
        overflow there regardless of concurrent launches.
        """
        if self.active:
            return sum(
                row.batch * self.WAITING_BATCHES for row in self.active
            )
        return sum(
            row.batch * self.COLD_QUEUE_BATCHES
            for _ready, row in self.launching
        )

    def _drop_expired_warm(self, now: float) -> None:
        kept: List[Tuple[float, float, ConfigRow]] = []
        for expires_at, entered_at, row in self.warm_pool:
            if now >= expires_at:
                # Reserved entry held its resources for its whole
                # keep-alive window: that is the policy's waste term.
                self.reserved_idle_weighted_s += (
                    max(0.0, expires_at - entered_at) * row.weighted_cost
                )
            else:
                kept.append((expires_at, entered_at, row))
        self.warm_pool = kept

    def promote_ready(self, now: float, dt: float) -> float:
        """Activate cold starts that finished; returns extra capacity.

        An instance becoming ready mid-interval contributes the
        fraction of the interval it is live for (the returned value is
        additional *service mass* in requests for this interval).
        """
        extra_mass = 0.0
        still: List[Tuple[float, ConfigRow]] = []
        for ready_at, row in self.launching:
            if ready_at <= now:
                self.active.append(row)
            elif ready_at < now + dt:
                self.active.append(row)
                # Live only for the tail of this interval.
                dead_frac = (ready_at - now) / dt
                extra_mass -= row.service_rps * dt * dead_frac
            else:
                still.append((ready_at, row))
        self.launching = still
        return extra_mass

    # ------------------------------------------------------------------
    # flow step
    # ------------------------------------------------------------------
    def step(self, now: float, dt: float) -> None:
        """Advance the state vector over ``[now, now + dt)``."""
        self.control(now)
        lam = self.trace.rps_at(now)
        self._measured_prev = lam
        arrivals = lam * dt
        kept_tick = now >= self.warmup_s
        self.arrived_all += arrivals
        if kept_tick:
            self.arrived_kept += arrivals
        service_mass = self.service_rps * dt
        service_mass += self.promote_ready(now, dt)
        self._clock.push(arrivals, now, now + dt)
        backlog = self.queue + arrivals
        served = min(backlog, max(0.0, service_mass))
        self.queue = backlog - served
        queue_cap = min(self.pending_cap, self._queue_capacity())
        if self.queue > queue_cap:
            overflow = self.queue - queue_cap
            dropped = self._clock.drop_tail(overflow)
            self.queue -= dropped
            self.dropped_all += dropped
            if kept_tick:
                self.dropped_kept += dropped
        if served > 0.0:
            self.served_all += served
            rate = max(self.service_rps, served / dt if dt > 0 else 0.0)
            pieces = self._clock.serve(served, now, rate)
            if kept_tick:
                self.served_kept += served
                self._record_latency(served, pieces, lam)
        self._sample_usage(now, dt, kept_tick)

    def _record_latency(
        self,
        served: float,
        pieces: List[Tuple[float, float]],
        lam: float,
    ) -> None:
        """Feed the batching-delay approximation into the sketch.

        A request's wait in the discrete runtime is dominated by the
        batch-fill time: joining a batch at position ``j`` (of ``b``)
        means waiting for ``b - j`` further Poisson arrivals, an
        Erlang-distributed time capped by the batch timeout.  That
        Erlang tail -- not central-queueing delay -- is what puts the
        DES p99 near the timeout, so the fluid model reproduces it
        with stratified position/quantile atoms.  Mass that was served
        out of a standing backlog fills its batch instantly instead
        and carries the FIFO backlog wait from the arrival clock.
        """
        capacity = self.capacity_rps
        if capacity <= 0.0 or not self.active:
            return
        groups: Dict[Tuple[int, int, int], Tuple[ConfigRow, int]] = {}
        for row in self.active:
            key = row.key
            prev = groups.get(key)
            groups[key] = (row, 1 if prev is None else prev[1] + 1)
        for key in sorted(groups):
            row, count = groups[key]
            share = row.r_up * count / capacity
            group_served = served * share
            if group_served <= 0.0:
                continue
            # Per-instance arrival rate: the dispatcher splits load
            # across instances, so each assembling batch fills from
            # its own share of the stream.
            lam_fill = lam * row.r_up / capacity
            self.batch_hist[row.batch] = (
                self.batch_hist.get(row.batch, 0.0) + group_served
            )
            self.config_hist[key] = (
                self.config_hist.get(key, 0.0) + group_served
            )
            self.batches_served += group_served / row.batch
            for backlog_wait, piece_mass in pieces:
                mass = piece_mass * share
                if mass <= 0.0:
                    continue
                if backlog_wait > 1e-9:
                    # Batches fill instantly from a standing backlog.
                    self._emit_atoms(row, backlog_wait, 0.0, mass)
                else:
                    self._emit_fill_atoms(row, lam_fill, mass)

    def _emit_fill_atoms(
        self, row: ConfigRow, lam_inst: float, mass: float
    ) -> None:
        """Batch-fill waits for fresh (unqueued) arrivals.

        Stratifies the batch position ``j``: position ``j`` waits for
        ``b - j`` more arrivals, an Erlang(b - j, lam) time capped by
        the timeout *remaining* when it joined (the batch timer runs
        from the first request, which arrived ``j - 1`` arrivals
        earlier).  Erlang quantiles come from the Wilson-Hilferty cube
        approximation at the tail-refined z strata.
        """
        batch = row.batch
        if batch <= 1 or lam_inst <= 0.0:
            fill = row.timeout_s if batch > 1 else 0.0
            self._emit_atoms(row, 0.0, fill, mass)
            return
        strata = min(batch, FILL_ATOMS)
        for s in range(strata):
            # Batch position for this stratum (1-based): exact when the
            # batch fits in the strata budget, midpoint-sampled above.
            if batch <= FILL_ATOMS:
                j = float(s + 1)
            else:
                j = 1 + (batch - 1) * (s + 0.5) / strata
            k = batch - j  # remaining arrivals to wait for
            stratum_mass = mass / strata
            if k <= 1e-9:
                self._emit_atoms(row, 0.0, 0.0, stratum_mass)
                continue
            cap = max(0.0, row.timeout_s - (j - 1.0) / lam_inst)
            for z, weight in FILL_Z_ATOMS:
                fill = min(_erlang_quantile(k, lam_inst, z), cap)
                self._emit_atoms(row, 0.0, fill, stratum_mass * weight)

    def _emit_atoms(
        self, row: ConfigRow, base_wait: float, fill: float, mass: float
    ) -> None:
        """One wait value x the execution-noise atoms -> the sketch."""
        slo = self.function.slo_s
        sigma = self.noise_sigma
        wait = base_wait + fill
        for z, weight in NOISE_ATOMS:
            exec_s = row.t_exec_actual * math.exp(sigma * z)
            latency = wait + exec_s
            atom = mass * weight
            self.latency_sum += atom * latency
            self.queue_wait_sum += atom * wait
            self.exec_sum += atom * exec_s
            if latency > slo + 1e-9:
                self.violations_kept += atom
            # Integer-count sketch feed with a deterministic
            # fractional carry so totals are preserved.
            scaled = atom + self._sketch_carry
            count = int(scaled)
            self._sketch_carry = scaled - count
            if count:
                self.sketch.add(latency, count)

    def _sample_usage(self, now: float, dt: float, kept_tick: bool) -> None:
        weighted = 0.0
        cpu = 0.0
        gpu = 0.0
        for row in self.active:
            weighted += row.weighted_cost
            cpu += row.cpu
            gpu += row.gpu
        for _ready, row in self.launching:
            # Cold-starting instances hold their allocation already.
            weighted += row.weighted_cost
            cpu += row.cpu
            gpu += row.gpu
        for _expires, _entered, row in self.warm_pool:
            # Reserved warm entries keep their resources too.
            weighted += row.weighted_cost
            cpu += row.cpu
            gpu += row.gpu
        start = max(now, self.warmup_s)
        end = now + dt
        if end > start:
            span = end - start
            self.resource_time_weighted += weighted * span
            self.cpu_core_seconds += cpu * span
            self.gpu_percent_seconds += gpu * span
        if kept_tick:
            self.usage_kept_sum += weighted
            self.usage_kept_count += 1
            if weighted > self.usage_peak:
                self.usage_peak = weighted
