"""Conservation-invariant audit layer for the serving simulator.

Simulator QA, not a paper mechanism: none of these checks change what
the platforms do -- they continuously verify that the discrete-event
machinery is internally consistent while INFless and the baselines run.
Checked families:

* **request conservation** -- at every control tick and at finalize,
  ``arrived == completed + dropped + parked + queued + executing +
  retrying``: the simulator may move requests between states (including
  a crash/re-dispatch cycle) but never invent or lose one;
* **resource conservation** -- per healthy server,
  ``allocated + free == capacity`` in every dimension, no free pool
  ever negative or above capacity, the per-device GPU bookkeeping sums
  to the server aggregates, the host-RAM swap ledger matches the warm
  pool's parked weights, and (at finalize) every outstanding placement
  is owned by a live instance or warm-pool entry;
* **latency-decomposition tiling** -- each completed request's
  ``cold_wait + queue_wait + exec`` tiles ``arrival -> completion``
  (exactly for single-stage runs, as a lower bound for chained ones)
  and agrees with the telemetry span when a recording tracer is on;
* **scheduler soundness** -- every placed instance has ``r_up > 0``
  and, on platforms that configure per the paper's Eq. 1, a
  ``<b, c, g>`` whose rate bounds are feasible under its SLO;
* **report consistency** -- ``drop_reasons`` sums to ``dropped`` and
  the batch/config histograms sum to ``completed``;
* **KV-cache ledger** (autoregressive runs) -- per worker, resident
  KV tokens equal the sum over running sequences and the acquire
  release delta, never exceed capacity; per healthy GPU, the device
  token counter matches its workers' sum and ``weights + KV`` fits in
  device memory; waiting/swapped/done sequences hold zero tokens
  (preempted or completed caches are released exactly once).

Modes: ``"off"`` (no checks), ``"collect"`` (fold findings into
``SimulationReport.invariant_violations``), ``"strict"`` (raise a
typed :class:`InvariantViolation` at the first failure; the test suite
turns this on globally via an autouse conftest fixture).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from repro.core.batching import cached_rate_bounds

MODES = ("off", "collect", "strict")

#: process-wide default mode; tests flip it to "strict" via conftest.
_default_mode = "off"

#: absolute slack for float comparisons (sim times are seconds).
TOL = 1e-6


def set_default_mode(mode: str) -> str:
    """Set the mode new checkers resolve when built without one."""
    global _default_mode
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    previous = _default_mode
    _default_mode = mode
    return previous


def default_mode() -> str:
    """The mode a checker built without an explicit one resolves."""
    return _default_mode


@dataclass(frozen=True)
class Violation:
    """One invariant failure, with enough context to debug it."""

    invariant: str
    time: float
    message: str
    details: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "invariant": self.invariant,
            "time": self.time,
            "message": self.message,
            "details": dict(self.details),
        }


class InvariantViolation(AssertionError):
    """A strict-mode audit failure; carries the typed finding."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(
            f"[{violation.invariant}] t={violation.time:.3f}s:"
            f" {violation.message}"
        )
        self.violation = violation


class InvariantChecker:
    """Audits a :class:`ServingSimulation` while it runs.

    The checker is platform-agnostic: it reads only the serving
    runtime's own ledgers, the shared cluster/server structures and the
    instance ledger every platform declares as ``platform.registry``
    (an :class:`~repro.core.autoscaler.InstanceRegistry`), so INFless
    and all baselines run under the same audit.  Every read is a plain
    attribute access: a renamed or missing ledger raises
    ``AttributeError`` instead of turning a check into a no-op.
    """

    def __init__(self, mode: Optional[str] = None) -> None:
        resolved = default_mode() if mode is None else mode
        if resolved not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {resolved!r}")
        self.mode = resolved
        self.violations: List[Violation] = []

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    def _flag(
        self, invariant: str, time: float, message: str, **details: object
    ) -> None:
        violation = Violation(
            invariant=invariant, time=time, message=message, details=details
        )
        if self.mode == "strict":
            raise InvariantViolation(violation)
        self.violations.append(violation)

    # ------------------------------------------------------------------
    # request conservation
    # ------------------------------------------------------------------
    def _request_counts(self, sim: object) -> Dict[str, int]:
        parked = sum(len(queue) for queue in sim.parked.values())
        queued = sum(
            len(inst.queue)
            for inst in sim.platform.registry.all_active_instances()
            if inst.queue is not None
        )
        ledger = sim.workflow_ledger
        resilience = sim.resilience_ledger
        return {
            "arrived": sim.metrics.arrived,
            # completed_count, not len(records): a sketch-mode ledger
            # holds only the rows not yet folded.
            "completed": sim.metrics.completed_count,
            "dropped": sim.metrics.dropped,
            "parked": parked,
            "queued": queued,
            "executing": sim.executing,
            "retrying": 0 if resilience is None else resilience.retry_pending,
            # DAG-workflow terms (all zero outside workflow mode):
            # fan-out spawns extra tokens, joins/failed-root absorption
            # retire them, and tokens may wait at fan-in barriers.
            "spawned": 0 if ledger is None else ledger.spawned,
            "retired": 0 if ledger is None else ledger.retired,
            "joining": 0 if ledger is None else ledger.joining,
        }

    def check_request_conservation(self, sim: object, now: float) -> None:
        # Chained stage hand-offs retire one in-flight token and inject
        # another at the same instant, so the ledger balances without a
        # separate "forwarded" term.  DAG fan-out mints extra tokens
        # ("spawned") and joins/failure absorption destroy them
        # ("retired"), so the full ledger is
        # ``arrived + spawned == completed + dropped + retired +
        # parked + queued + executing + joining + retrying``.
        counts = self._request_counts(sim)
        accounted = (
            counts["completed"]
            + counts["dropped"]
            + counts["parked"]
            + counts["queued"]
            + counts["executing"]
            + counts["retrying"]
            + counts["retired"]
            + counts["joining"]
        )
        entered = counts["arrived"] + counts["spawned"]
        if accounted != entered:
            self._flag(
                "request_conservation",
                now,
                f"arrived+spawned={entered} but accounted={accounted}",
                **counts,
            )

    # ------------------------------------------------------------------
    # resource conservation
    # ------------------------------------------------------------------
    def check_resource_conservation(
        self, sim: object, now: float, warm_entries: Iterable[object]
    ) -> None:
        cluster = sim.platform.cluster
        by_server: Dict[int, List[object]] = {}
        for placement in cluster.placements:
            by_server.setdefault(placement.server_id, []).append(placement)
        # Host-RAM swap ledger (Torpor-style policies): parked weights
        # per server, summed from the caller's warm-pool entries.
        swap_by_server: Dict[int, float] = {}
        for entry in warm_entries:
            swap_server = entry.swap_server_id
            if swap_server is not None:
                swap_by_server[swap_server] = (
                    swap_by_server.get(swap_server, 0.0) + entry.swap_mb
                )
        for server in cluster.servers:
            if not server.healthy:
                continue
            # Audit the raw bookkeeping fields: the ResourceVector views
            # (server.free / server.used) refuse to even construct from
            # a corrupted negative pool, which would turn an audit
            # finding into an opaque crash.
            dims = (
                ("cpu", server.cpu_free, server.cpu_capacity),
                ("gpu", server.gpu_free, server.gpu_capacity),
                ("memory_mb", server.memory_free_mb, server.memory_capacity_mb),
            )
            for dim, f, c in dims:
                if f < 0 or f > c:
                    self._flag(
                        "resource_conservation",
                        now,
                        f"server {server.server_id}: free {dim}={f}"
                        f" outside [0, {c}]",
                        server=server.server_id,
                        dimension=dim,
                    )
            for gpu in server.gpus:
                if gpu.free < 0 or gpu.free > gpu.capacity:
                    self._flag(
                        "resource_conservation",
                        now,
                        f"server {server.server_id} GPU {gpu.device_id}:"
                        f" free={gpu.free} outside [0, {gpu.capacity}]",
                        server=server.server_id,
                        device=gpu.device_id,
                    )
            gpu_total = sum(gpu.free for gpu in server.gpus)
            if server.gpu_free != gpu_total:
                self._flag(
                    "resource_conservation",
                    now,
                    f"server {server.server_id}: cached GPU free"
                    f" {server.gpu_free} != per-device sum {gpu_total}",
                    server=server.server_id,
                )
            placements = by_server.get(server.server_id, [])
            for dim, f, c in dims:
                used = c - f
                placed = sum(getattr(p.resources, dim) for p in placements)
                if abs(placed - used) > TOL:
                    self._flag(
                        "resource_conservation",
                        now,
                        f"server {server.server_id}: placements sum to"
                        f" {dim}={placed} but used={used}"
                        " (allocate/release mismatch)",
                        server=server.server_id,
                        dimension=dim,
                    )
            swap = server.swap_reserved_mb
            if swap < 0 or swap > server.memory_free_mb + TOL:
                self._flag(
                    "resource_conservation",
                    now,
                    f"server {server.server_id}: swap ledger {swap:.1f} MB"
                    f" outside [0, free memory {server.memory_free_mb}]",
                    server=server.server_id,
                    dimension="swap_mb",
                )
            parked = swap_by_server.get(server.server_id, 0.0)
            if abs(parked - swap) > TOL:
                self._flag(
                    "resource_conservation",
                    now,
                    f"server {server.server_id}: warm-pool swapped weights"
                    f" sum to {parked:.1f} MB but ledger holds {swap:.1f} MB",
                    server=server.server_id,
                    dimension="swap_mb",
                )

    def check_placement_ownership(self, sim: object, now: float) -> None:
        """Every outstanding placement belongs to a tracked instance."""
        cluster = sim.platform.cluster
        registry = sim.platform.registry
        holders = registry.all_active_instances() + [
            entry.instance for entry in registry.all_warm_entries()
        ]
        owners = {
            inst.placement.placement_id
            for inst in holders
            if inst.placement is not None
        }
        leaked = [
            p.placement_id
            for p in cluster.placements
            if p.placement_id not in owners
        ]
        if leaked:
            self._flag(
                "resource_conservation",
                now,
                f"{len(leaked)} placement(s) held by no live instance or"
                " warm-pool entry (allocation leak)",
                leaked_placements=leaked[:10],
            )

    # ------------------------------------------------------------------
    # scheduler soundness
    # ------------------------------------------------------------------
    def check_scheduler_soundness(self, sim: object, now: float) -> None:
        level = sim.platform.invariant_slo_check
        for inst in sim.platform.registry.all_active_instances():
            if inst.placement is None:
                continue
            if not inst.r_up > 0.0:
                self._flag(
                    "scheduler_soundness",
                    now,
                    f"instance#{inst.instance_id} placed with"
                    f" r_up={inst.r_up} (zero-capacity instance)",
                    instance=inst.instance_id,
                    function=inst.function.name,
                )
                continue
            if level == "none":
                continue
            slo_eff = inst.function.slo_s - inst.timeout_slack_s
            try:
                bounds = cached_rate_bounds(
                    inst.t_exec_pred, slo_eff, inst.config.batch
                )
            except ValueError:
                bounds = None
            if bounds is None:
                self._flag(
                    "scheduler_soundness",
                    now,
                    f"instance#{inst.instance_id} config {inst.config}"
                    f" infeasible under SLO {slo_eff:.4f}s"
                    f" (t_exec={inst.t_exec_pred:.4f}s)",
                    instance=inst.instance_id,
                    function=inst.function.name,
                )
                continue
            if level == "exact" and (
                abs(bounds.r_up - inst.r_up) > TOL * max(1.0, bounds.r_up)
                or abs(bounds.r_low - inst.r_low)
                > TOL * max(1.0, bounds.r_low)
            ):
                self._flag(
                    "scheduler_soundness",
                    now,
                    f"instance#{inst.instance_id} carries bounds"
                    f" [{inst.r_low:.3f}, {inst.r_up:.3f}] but Eq. 1"
                    f" gives [{bounds.r_low:.3f}, {bounds.r_up:.3f}]",
                    instance=inst.instance_id,
                    function=inst.function.name,
                )

    # ------------------------------------------------------------------
    # latency tiling
    # ------------------------------------------------------------------
    def check_latency_tiling(
        self, sim: object, now: float, chained: bool
    ) -> None:
        """Wait + exec parts tile each latency (``chained``: bound it)."""
        ledger = sim.metrics.completion_columns()
        latency = ledger.completion - ledger.arrival
        parts = ledger.cold_wait_s + ledger.queue_wait_s + ledger.exec_s
        negative = (
            (ledger.cold_wait_s < -TOL)
            | (ledger.queue_wait_s < -TOL)
            | (ledger.exec_s <= 0)
            | (latency < -TOL)
        )
        tol = TOL * np.maximum(1.0, latency)
        if chained:
            untiled = parts > latency + tol
        else:
            untiled = np.abs(parts - latency) > tol
        for row in np.flatnonzero(negative | untiled).tolist():
            function = ledger.function[row]
            if negative[row]:
                self._flag(
                    "latency_tiling",
                    now,
                    f"{function}: negative latency component"
                    f" (cold={ledger.cold_wait_s[row]:.6f},"
                    f" queue={ledger.queue_wait_s[row]:.6f},"
                    f" exec={ledger.exec_s[row]:.6f})",
                    function=function,
                )
                continue
            self._flag(
                "latency_tiling",
                now,
                f"{function}: cold+queue+exec={parts[row]:.6f}s does"
                f" not tile arrival->completion={latency[row]:.6f}s",
                function=function,
                arrival=float(ledger.arrival[row]),
                completion=float(ledger.completion[row]),
            )

    def check_telemetry_agreement(self, sim: object, now: float) -> None:
        if not sim.tracer.enabled:
            return
        from repro.telemetry import spans as ev

        tracer = sim.tracer
        latencies = tracer.column(ev.REQUEST_COMPLETE, "latency_s")
        drops = tracer.count(ev.REQUEST_DROP)
        arrivals = tracer.count(ev.REQUEST_ARRIVAL)
        if len(latencies) != sim.metrics.completed_count:
            self._flag(
                "telemetry_agreement",
                now,
                f"tracer saw {len(latencies)} completions, metrics"
                f" recorded {sim.metrics.completed_count}",
            )
        if drops != sim.metrics.dropped:
            self._flag(
                "telemetry_agreement",
                now,
                f"tracer saw {drops} drops, metrics recorded"
                f" {sim.metrics.dropped}",
            )
        if arrivals != sim.metrics.arrived:
            self._flag(
                "telemetry_agreement",
                now,
                f"tracer saw {arrivals} arrivals, metrics recorded"
                f" {sim.metrics.arrived}",
            )
        span_total = sum(latencies)
        record_total = sim.metrics.latency_total_s
        if abs(span_total - record_total) > TOL * max(1.0, record_total):
            self._flag(
                "telemetry_agreement",
                now,
                f"tracer latency total {span_total:.6f}s disagrees with"
                f" metrics total {record_total:.6f}s",
            )

    # ------------------------------------------------------------------
    # report consistency
    # ------------------------------------------------------------------
    def check_report(self, sim: object, report: object) -> None:
        if not self.enabled:
            return
        now = sim.loop.now
        if sum(report.drop_reasons.values()) != report.dropped:
            self._flag(
                "report_consistency",
                now,
                f"drop_reasons sum to {sum(report.drop_reasons.values())}"
                f" but dropped={report.dropped}",
                drop_reasons=dict(report.drop_reasons),
            )
        for name in ("batch_histogram", "config_histogram"):
            hist = getattr(report, name)
            total = sum(hist.values())
            if total != report.completed:
                self._flag(
                    "report_consistency",
                    now,
                    f"{name} sums to {total} but completed="
                    f"{report.completed}",
                )
        if report.completed + report.dropped > report.arrived:
            self._flag(
                "report_consistency",
                now,
                f"completed+dropped={report.completed + report.dropped}"
                f" exceeds arrived={report.arrived}",
            )

    # ------------------------------------------------------------------
    # autoregressive (LLM) serving: KV ledger + token conservation
    # ------------------------------------------------------------------
    def check_kv_ledger(self, sim: object, now: float) -> None:
        """The KV-token ledger balances at every level.

        Per worker: resident tokens == sum over running sequences ==
        acquired - released, and never above capacity.  Per healthy
        GPU: the device counter matches its workers' sum and weights +
        KV fit in device memory.  Sequences outside RUNNING hold no
        tokens -- a preempted or completed cache is released exactly
        once (a double release would already have raised in the device
        ledger; a *missed* release shows up here as a mismatch).
        """
        platform = sim.platform
        by_device: Dict[tuple, int] = {}
        for worker in platform.workers:
            resident = sum(s.kv_tokens for s in worker.running)
            if resident != worker.kv_resident_tokens:
                self._flag(
                    "kv_ledger",
                    now,
                    f"worker#{worker.worker_id}: running sequences hold"
                    f" {resident} KV tokens but ledger says"
                    f" {worker.kv_resident_tokens}",
                    worker=worker.worker_id,
                )
            delta = worker.kv_acquired_total - worker.kv_released_total
            if delta != worker.kv_resident_tokens:
                self._flag(
                    "kv_ledger",
                    now,
                    f"worker#{worker.worker_id}: acquired-released"
                    f" delta {delta} != resident"
                    f" {worker.kv_resident_tokens} (leak or double"
                    " release)",
                    worker=worker.worker_id,
                )
            if worker.kv_resident_tokens > worker.kv_capacity_tokens:
                self._flag(
                    "kv_ledger",
                    now,
                    f"worker#{worker.worker_id}: {worker.kv_resident_tokens}"
                    f" resident KV tokens exceed capacity"
                    f" {worker.kv_capacity_tokens}",
                    worker=worker.worker_id,
                )
            for seq in list(worker.waiting) + list(worker.swapped):
                if seq.kv_tokens != 0:
                    self._flag(
                        "kv_ledger",
                        now,
                        f"worker#{worker.worker_id}: request"
                        f" {seq.request_id} is {seq.state.value} but"
                        f" still holds {seq.kv_tokens} KV tokens",
                        worker=worker.worker_id,
                        request=seq.request_id,
                    )
            key = (worker.server_id, worker.device.device_id)
            by_device[key] = by_device.get(key, 0) + worker.kv_resident_tokens
        for server in platform.cluster.servers:
            if not server.healthy:
                continue
            for gpu in server.gpus:
                expected = by_device.get((server.server_id, gpu.device_id), 0)
                if gpu.kv_reserved_tokens != expected:
                    self._flag(
                        "kv_ledger",
                        now,
                        f"server {server.server_id} GPU {gpu.device_id}:"
                        f" device holds {gpu.kv_reserved_tokens} KV"
                        f" tokens, workers account {expected}",
                        server=server.server_id,
                        device=gpu.device_id,
                    )
                occupied = gpu.weights_reserved_mb + gpu.kv_reserved_mb
                if occupied > gpu.memory_mb + TOL:
                    self._flag(
                        "kv_ledger",
                        now,
                        f"server {server.server_id} GPU {gpu.device_id}:"
                        f" weights+KV occupy {occupied:.1f} MB of"
                        f" {gpu.memory_mb:.0f} MB device memory",
                        server=server.server_id,
                        device=gpu.device_id,
                    )
                if gpu.kv_reserved_tokens == 0 and gpu.kv_reserved_mb != 0.0:
                    self._flag(
                        "kv_ledger",
                        now,
                        f"server {server.server_id} GPU {gpu.device_id}:"
                        f" zero KV tokens but {gpu.kv_reserved_mb} MB"
                        " still charged (float residue)",
                        server=server.server_id,
                        device=gpu.device_id,
                    )

    def check_llm_request_conservation(self, sim: object, now: float) -> None:
        waiting, running, swapped = sim.sequences_in_system()
        counts = {
            "arrived": sim.metrics.arrived,
            "completed": sim.metrics.completed_count,
            "dropped": sim.metrics.dropped,
            "waiting": waiting,
            "running": running,
            "swapped": swapped,
        }
        accounted = sum(v for k, v in counts.items() if k != "arrived")
        if accounted != counts["arrived"]:
            self._flag(
                "request_conservation",
                now,
                f"arrived={counts['arrived']} but accounted={accounted}",
                **counts,
            )

    def check_llm_records(self, sim: object, now: float) -> None:
        """Per-token metrics are physically sensible."""
        for record in sim.llm_records:
            if record.ttft_s < -TOL or record.tpot_s < -TOL:
                self._flag(
                    "llm_latency",
                    now,
                    f"{record.function}: negative per-token latency"
                    f" (ttft={record.ttft_s:.6f}, tpot={record.tpot_s:.6f})",
                    function=record.function,
                )
                continue
            if record.ttft_s > record.latency_s + TOL:
                self._flag(
                    "llm_latency",
                    now,
                    f"{record.function}: TTFT {record.ttft_s:.6f}s exceeds"
                    f" end-to-end latency {record.latency_s:.6f}s",
                    function=record.function,
                )
            if record.output_tokens == 1 and record.tpot_s != 0.0:
                self._flag(
                    "llm_latency",
                    now,
                    f"{record.function}: single-token request with"
                    f" tpot={record.tpot_s:.6f}s",
                    function=record.function,
                )

    def check_llm_tick(self, sim: object, now: float) -> None:
        """The per-control-tick audit for autoregressive runs."""
        if not self.enabled:
            return
        self.check_llm_request_conservation(sim, now)
        # LLM platforms never park weights in host RAM.
        self.check_resource_conservation(sim, now, ())
        self.check_kv_ledger(sim, now)

    def check_llm_final(self, sim: object, now: float) -> None:
        """The end-of-run audit for autoregressive runs."""
        if not self.enabled:
            return
        self.check_llm_request_conservation(sim, now)
        self.check_resource_conservation(sim, now, ())
        self.check_kv_ledger(sim, now)
        self.check_latency_tiling(sim, now, chained=False)
        self.check_llm_records(sim, now)
        self.check_telemetry_agreement(sim, now)
        waiting, running, swapped = sim.sequences_in_system()
        if waiting or running or swapped:
            self._flag(
                "request_conservation",
                now,
                f"{waiting + running + swapped} sequence(s) stranded after"
                f" the event loop drained (waiting={waiting},"
                f" running={running}, swapped={swapped})",
                waiting=waiting,
                running=running,
                swapped=swapped,
            )

    # ------------------------------------------------------------------
    # fluid-engine audits (flow conservation over a ledger dict)
    # ------------------------------------------------------------------
    def check_fluid_tick(
        self, name: str, ledger: Dict[str, float], now: float
    ) -> None:
        """The per-step audit of one function's fluid state vector.

        The fluid engine has no request objects to count, so the audit
        works on its flow ledger: cumulative arrivals must equal served
        + dropped + still-queued mass (conservation), every state
        variable must be non-negative, and the FIFO arrival clock must
        agree with the queue-depth integrator.
        """
        if not self.enabled:
            return
        arrived = ledger["arrived"]
        served = ledger["served"]
        dropped = ledger["dropped"]
        queued = ledger["queued"]
        balance = arrived - (served + dropped + queued)
        tolerance = 1e-6 * max(1.0, arrived)
        if abs(balance) > tolerance:
            self._flag(
                "fluid_flow_conservation",
                now,
                f"{name}: arrival mass leaked {balance:+.6f} requests"
                f" (arrived={arrived:.3f}, served={served:.3f},"
                f" dropped={dropped:.3f}, queued={queued:.3f})",
                function=name,
                balance=balance,
            )
        for variable in ("queued", "served", "dropped", "capacity_rps",
                         "rate_estimate", "active", "launching",
                         "warm_pool"):
            if ledger[variable] < -1e-9:
                self._flag(
                    "fluid_nonnegative_state",
                    now,
                    f"{name}: state variable {variable} went negative"
                    f" ({ledger[variable]:.6f})",
                    function=name,
                    variable=variable,
                )
        clock = ledger["clock_pending"]
        if abs(clock - queued) > tolerance:
            self._flag(
                "fluid_flow_conservation",
                now,
                f"{name}: FIFO arrival clock holds {clock:.3f} requests"
                f" but the queue integrator holds {queued:.3f}",
                function=name,
                clock_pending=clock,
                queued=queued,
            )

    def check_fluid_final(self, name: str, ledger: Dict[str, float]) -> None:
        """The end-of-run audit of one function's fluid state."""
        if not self.enabled:
            return
        self.check_fluid_tick(name, ledger, ledger.get("now", -1.0))
        if ledger["active"] == 0 and ledger["served"] > 0 and (
            ledger["queued"] > 1e-6
        ):
            self._flag(
                "fluid_flow_conservation",
                -1.0,
                f"{name}: {ledger['queued']:.3f} requests stranded in the"
                " fluid queue with no active instances after the horizon",
                function=name,
                queued=ledger["queued"],
            )

    # ------------------------------------------------------------------
    # DAG workflows
    # ------------------------------------------------------------------
    def check_workflow_tick(self, sim: object, now: float) -> None:
        """Stage-request conservation across DAG edges, barrier sanity.

        For every stage the tokens forwarded onto its inbound edges
        must be accounted for: directly injected for fan-in-1 stages,
        or consumed by fired joins / still waiting at a live barrier /
        purged with a failed root for fan-in stages.  Join barriers may
        only hold 1..fan_in-1 tokens of a live (non-failed) root -- a
        full or failed-root barrier is an orphan the forwarding logic
        should have resolved.
        """
        ledger = sim.workflow_ledger
        if ledger is None:
            return
        fan_in = ledger.spec.fan_in()
        waiting: Dict[str, int] = {}
        for (stage, root), waiters in ledger.barriers.items():
            waiting[stage] = waiting.get(stage, 0) + len(waiters)
            if not 1 <= len(waiters) <= fan_in[stage] - 1:
                self._flag(
                    "workflow_barriers",
                    now,
                    f"join barrier at {stage!r} holds {len(waiters)}"
                    f" token(s), expected 1..{fan_in[stage] - 1}",
                    stage=stage,
                    root=root,
                )
            if root in ledger.failed:
                self._flag(
                    "workflow_barriers",
                    now,
                    f"orphaned join barrier at {stage!r}: root {root}"
                    " already failed",
                    stage=stage,
                    root=root,
                )
        for stage, preds in ledger.spec.predecessors().items():
            if not preds:
                continue  # entry stage: fed by the trace, not by edges
            inflow = sum(
                ledger.edge_forwards[(src, stage)] for src in preds
            )
            if fan_in[stage] == 1:
                outflow = ledger.injected[stage]
            else:
                outflow = (
                    fan_in[stage] * ledger.join_fired[stage]
                    + waiting.get(stage, 0)
                    + ledger.join_purged[stage]
                )
            if inflow != outflow:
                self._flag(
                    "workflow_edge_conservation",
                    now,
                    f"stage {stage!r}: {inflow} token(s) forwarded onto"
                    f" inbound edges but {outflow} accounted for",
                    stage=stage,
                    inflow=inflow,
                    outflow=outflow,
                )

    # ------------------------------------------------------------------
    # entry points called by the runtime
    # ------------------------------------------------------------------
    def check_tick(self, sim: object, now: float) -> None:
        """The per-control-tick audit (cheap, state-only checks)."""
        if not self.enabled:
            return
        self.check_request_conservation(sim, now)
        self.check_resource_conservation(
            sim, now, sim.platform.registry.all_warm_entries()
        )
        self.check_scheduler_soundness(sim, now)
        self.check_workflow_tick(sim, now)

    def check_final(self, sim: object, now: float) -> None:
        """The end-of-run audit, after the event loop drains."""
        if not self.enabled:
            return
        self.check_request_conservation(sim, now)
        self.check_resource_conservation(
            sim, now, sim.platform.registry.all_warm_entries()
        )
        self.check_placement_ownership(sim, now)
        self.check_scheduler_soundness(sim, now)
        # Earlier workflow stages, crashed attempts and retry backoff
        # are latency no wait bucket sees: the parts only bound it.
        resilience = sim.resilience_ledger
        self.check_latency_tiling(
            sim, now,
            chained=sim.workflow_ledger is not None
            or (resilience is not None and resilience.retries > 0),
        )
        self.check_telemetry_agreement(sim, now)
        self.check_workflow_tick(sim, now)
        if sim.executing != 0:
            self._flag(
                "request_conservation",
                now,
                f"{sim.executing} request(s) still marked executing after"
                " the event loop drained",
            )


def resolve_checker(
    invariants: Union[None, str, InvariantChecker],
) -> InvariantChecker:
    """Normalise a runtime's ``invariants`` argument into a checker."""
    if isinstance(invariants, InvariantChecker):
        return invariants
    return InvariantChecker(mode=invariants)
