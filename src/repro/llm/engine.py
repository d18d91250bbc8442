"""Continuous-batching LLM workers and their scheduling policies.

The engine realizes iteration-level scheduling: a worker advances one
*iteration* (prefill of newly admitted prompts, or one decode token
for every running sequence) at a time, and sequences join or leave the
running batch only at these token boundaries.  Admission, KV-cache
accounting and preemption all happen when an iteration is planned:

* **admission** -- ``"slo"`` sheds arrivals whose estimated TTFT
  already exceeds the function's SLO (INFless-style SLO-aware
  admission); ``"fcfs"`` queues everything up to ``max_queue``.
* **scheduling** -- ``"continuous"`` lets prompts prefill as soon as
  KV memory allows; ``"static"`` is the gang-batch adaptation used as
  the comparison point (a batch is formed only when the previous one
  fully drains).
* **preemption** -- when a decode iteration needs more KV tokens than
  the device has free, victims are evicted LIFO (latest admitted
  first): ``"swap"`` parks the cache in host memory and later swaps
  it back at PCIe cost, ``"sacrifice"`` discards it and restarts the
  request from prefill.  Victim selection is ``"conservative"``
  (evict the minimum, admit only worst-case-feasible sequences) or
  ``"aggressive"`` (admit eagerly, evict with headroom).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceVector
from repro.cluster.server import AllocationError, GpuDevice
from repro.core.autoscaler import ControlOutcome
from repro.core.function import FunctionSpec
from repro.models.llm import LLMSpec
from repro.llm.sequence import Sequence, SequenceState
from repro.telemetry import spans as ev
from repro.telemetry.tracer import NULL_TRACER

ADMISSION_POLICIES = ("slo", "fcfs")
SCHEDULING_MODES = ("continuous", "static")
PREEMPTION_MODES = ev.PREEMPT_MODES  # ("swap", "sacrifice")
VICTIM_POLICIES = ("conservative", "aggressive")

#: host memory the worker process itself occupies beyond the staged
#: model copy.
WORKER_OVERHEAD_MB = 1024

#: CPU cores each model replica reserves next to its GPU share.
WORKER_CPU = 2

#: effective host<->device copy bandwidth for KV swaps (PCIe 3.0 x16
#: with transfer overheads).
SWAP_MBPS = 12_000.0


#: what a fault leaves of one worker: ``(worker, stranded sequences,
#: requeue candidates)``.
Lost = Tuple["LLMWorker", List[Sequence], List[Sequence]]


class StepPlan:
    """One planned iteration, or a run of identical decode iterations.

    ``duration_s`` is the first iteration's length; ``end_s`` is when
    the last planned iteration ends, the time its ``DECODE_STEP``
    event fires.
    """

    __slots__ = ("kind", "seqs", "batch_tokens", "duration_s", "end_s", "lost")

    def __init__(
        self,
        kind: str,
        seqs: Tuple[Sequence, ...],
        batch_tokens: int,
        duration_s: float,
        start_s: float,
    ) -> None:
        self.kind = kind  # "prefill" | "decode"
        self.seqs = seqs
        self.batch_tokens = batch_tokens
        self.duration_s = duration_s
        self.end_s = start_s + duration_s
        #: set when the serving machine died with the step in flight.
        self.lost = False


class LLMWorker:
    """One model replica bound to a GPU, with its KV-token ledger."""

    __slots__ = (
        "worker_id",
        "function",
        "spec",
        "placement",
        "server_id",
        "device",
        "config",
        "waiting",
        "running",
        "swapped",
        "busy",
        "busy_until",
        "kv_capacity_tokens",
        "kv_resident_tokens",
        "kv_acquired_total",
        "kv_released_total",
        "kv_peak_tokens",
        "prefill_steps",
        "decode_steps",
        "batch_token_sum",
        "tokens_generated",
        "prompt_tokens_prefilled",
        "swap_outs",
        "swap_ins",
        "sacrifices",
        "_admit_counter",
    )

    def __init__(
        self,
        worker_id: int,
        function: FunctionSpec,
        placement,
        device: GpuDevice,
        config: Tuple[int, int, int],
        kv_capacity_tokens: int,
    ) -> None:
        self.worker_id = worker_id
        self.function = function
        self.spec: LLMSpec = function.model
        self.placement = placement
        self.server_id = placement.server_id
        self.device = device
        self.config = config
        self.waiting: Deque[Sequence] = deque()
        self.running: List[Sequence] = []
        self.swapped: List[Sequence] = []
        self.busy = False
        self.busy_until = 0.0
        self.kv_capacity_tokens = kv_capacity_tokens
        self.kv_resident_tokens = 0
        self.kv_acquired_total = 0
        self.kv_released_total = 0
        self.kv_peak_tokens = 0
        self.prefill_steps = 0
        self.decode_steps = 0
        self.batch_token_sum = 0
        self.tokens_generated = 0
        self.prompt_tokens_prefilled = 0
        self.swap_outs = 0
        self.swap_ins = 0
        self.sacrifices = 0
        self._admit_counter = 0

    # ------------------------------------------------------------------
    # KV-token ledger (mirrored on the GPU device in MB)
    # ------------------------------------------------------------------
    @property
    def kv_free_tokens(self) -> int:
        """KV tokens still allocatable (own budget vs device memory).

        ``min(own, spec.kv_capacity_tokens(device.memory_free_mb))``
        read straight off the device fields: it runs several times per
        iteration, so it stays one frame.
        """
        own = self.kv_capacity_tokens - self.kv_resident_tokens
        device = self.device
        free_mb = (
            device.memory_mb - device.weights_reserved_mb
            - device.kv_reserved_mb
        )
        if free_mb <= 0:
            return min(own, 0)
        shared = int(free_mb / self.spec.kv_mb_per_token)
        return own if own < shared else shared

    @property
    def kv_reach_tokens(self) -> int:
        """Most KV tokens this worker can ever hold at once.

        Its own budget, capped by the device memory no weights hold: a
        replica placed later on the same GPU loads its weights after
        this worker's budget was sized.
        """
        device = self.device
        return min(
            self.kv_capacity_tokens,
            self.spec.kv_capacity_tokens(
                device.memory_mb - device.weights_reserved_mb
            ),
        )

    def kv_acquire(self, tokens: int, sequences: int = 1) -> None:
        """Reserve ``tokens`` of KV cache for each of ``sequences``.

        A prompt charges its tokens here, and a decode run's first
        iteration its whole batch (one token each) in one call; the
        device still books one charge per sequence.  The rest of the
        run books through :meth:`kv_acquire_run`.
        """
        self.device.kv_acquire(tokens, self.spec.kv_mb_per_token, sequences)
        tokens *= sequences
        self.kv_resident_tokens += tokens
        self.kv_acquired_total += tokens
        if self.kv_resident_tokens > self.kv_peak_tokens:
            self.kv_peak_tokens = self.kv_resident_tokens

    def kv_acquire_run(self, batch: int, iterations: int) -> int:
        """Book up to ``iterations`` decode iterations of ``batch``
        one-token charges; return how many were booked.

        The run stops before the first iteration that
        :attr:`kv_free_tokens` could not hold: the own budget caps it
        in integers, the device books the rest in one call.
        """
        own = self.kv_capacity_tokens - self.kv_resident_tokens
        cap = max(0, own) // batch
        if iterations > cap:
            iterations = cap
        booked = self.device.kv_acquire_run(
            self.spec.kv_mb_per_token, batch, iterations
        )
        tokens = booked * batch
        self.kv_resident_tokens += tokens
        self.kv_acquired_total += tokens
        if self.kv_resident_tokens > self.kv_peak_tokens:
            self.kv_peak_tokens = self.kv_resident_tokens
        return booked

    def kv_release(self, tokens: int) -> None:
        """Return KV cache; raises when releasing more than resident."""
        if tokens > self.kv_resident_tokens:
            raise AllocationError(
                f"worker {self.worker_id}: releasing {tokens} KV tokens,"
                f" only {self.kv_resident_tokens} resident"
            )
        self.device.kv_release(tokens, self.spec.kv_mb_per_token)
        self.kv_resident_tokens -= tokens
        self.kv_released_total += tokens

    # ------------------------------------------------------------------
    @property
    def load(self) -> int:
        """Sequences on this worker in any state (routing metric)."""
        return len(self.waiting) + len(self.running) + len(self.swapped)

    @property
    def has_work(self) -> bool:
        """True while any sequence still needs decode iterations."""
        return bool(self.waiting or self.running or self.swapped)

    def next_admit_seq(self) -> int:
        """Monotonic admission ticket (FCFS tie-break for scheduling)."""
        self._admit_counter += 1
        return self._admit_counter


class ContinuousBatchingLLM:
    """Iteration-level LLM serving against the ServingPlatform protocol.

    Follows the normalized registry constructor shape
    ``(cluster, predictor, *, name, seed, ...)``; the predictor is
    accepted for uniformity but unused (iteration costs come from the
    :class:`~repro.models.llm.LLMSpec` shapes directly).
    """

    #: marks the platform as autoregressive so the Experiment facade
    #: builds an LLMSimulation instead of the single-shot runtime.
    workload_class = "autoregressive"
    ingress_delay_s = 0.0
    waiting_batches = 2
    invariant_slo_check = "none"

    def __init__(
        self,
        cluster: Cluster,
        predictor=None,
        *,
        name: str = "llm",
        seed: int = 0,
        replicas: int = 1,
        gpu_percent: int = 100,
        tpot_slo_s: float = 0.05,
        scheduling: str = "continuous",
        admission: str = "slo",
        preemption: str = "swap",
        victims: str = "conservative",
        max_queue: int = 512,
        max_kv_tokens: Optional[int] = None,
    ) -> None:
        if scheduling not in SCHEDULING_MODES:
            raise ValueError(
                f"scheduling must be one of {SCHEDULING_MODES}"
            )
        if admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"admission must be one of {ADMISSION_POLICIES}"
            )
        if preemption not in PREEMPTION_MODES:
            raise ValueError(
                f"preemption must be one of {PREEMPTION_MODES}"
            )
        if victims not in VICTIM_POLICIES:
            raise ValueError(f"victims must be one of {VICTIM_POLICIES}")
        self.cluster = cluster
        self.predictor = predictor
        self.name = name
        self.seed = seed
        self.replicas = replicas
        self.gpu_percent = gpu_percent
        self.tpot_slo_s = tpot_slo_s
        self.scheduling = scheduling
        self.admission = admission
        self.preemption = preemption
        self.victims = victims
        self.max_queue = max_queue
        self.max_kv_tokens = max_kv_tokens
        # The emit sites here stay on the keyword ``tracer.emit``, not
        # bound recorders: ``attach_tracer`` swaps this tracer after
        # construction, which would strand a recorder bound now.
        self.tracer = NULL_TRACER
        self.functions: Dict[str, FunctionSpec] = {}
        self.workers: List[LLMWorker] = []
        self._by_function: Dict[str, List[LLMWorker]] = {}
        self._next_worker_id = 0
        self.launches = 0
        self._invocations: Dict[str, int] = {}
        #: counters of workers retired by faults, folded into summaries.
        self._retired: Dict[str, int] = {
            "prefill_steps": 0, "decode_steps": 0, "batch_token_sum": 0,
            "tokens_generated": 0, "prompt_tokens_prefilled": 0,
            "swap_outs": 0, "swap_ins": 0, "sacrifices": 0,
            "kv_peak_tokens": 0,
        }

    # ------------------------------------------------------------------
    # deployment / placement
    # ------------------------------------------------------------------
    def deploy(self, function: FunctionSpec) -> None:
        """Place ``replicas`` workers for an autoregressive function."""
        if not isinstance(function.model, LLMSpec):
            raise TypeError(
                f"{self.name} serves autoregressive models; "
                f"{function.model.name!r} is a single-shot zoo model"
                " (deploy it on infless/openfaas+/batch instead)"
            )
        if function.name in self.functions:
            raise ValueError(f"function {function.name!r} already deployed")
        self.functions[function.name] = function
        self._by_function[function.name] = []
        self._invocations[function.name] = 0
        placed = 0
        for _replica in range(self.replicas):
            if self._place_worker(function) is None:
                break
            placed += 1
        if placed == 0:
            raise AllocationError(
                f"no server can host a {function.model.name} worker"
                f" ({function.model.weights_mb:.0f} MB weights,"
                f" {self.gpu_percent}% of one GPU)"
            )

    def _place_worker(self, function: FunctionSpec) -> Optional[LLMWorker]:
        spec: LLMSpec = function.model
        request = ResourceVector(
            cpu=WORKER_CPU,
            gpu=self.gpu_percent,
            memory_mb=int(spec.weights_mb) + WORKER_OVERHEAD_MB,
        )
        for server in self.cluster.servers:
            if not server.healthy or not server.can_fit(request):
                continue
            if self._pick_device(server, spec) is None:
                continue
            placement = self.cluster.allocate(server.server_id, request)
            device = server.gpus[placement.gpu_device_id]
            headroom = device.memory_free_mb - spec.weights_mb
            if spec.kv_capacity_tokens(headroom) < spec.max_prompt_tokens:
                # The SM best-fit picked a device whose *memory* is
                # already claimed by a co-resident model; try elsewhere.
                self.cluster.release(placement)
                continue
            device.reserve_weights(spec.weights_mb)
            capacity = spec.kv_capacity_tokens(device.memory_free_mb)
            if self.max_kv_tokens is not None:
                capacity = min(capacity, self.max_kv_tokens)
            worker = LLMWorker(
                worker_id=self._next_worker_id,
                function=function,
                placement=placement,
                device=device,
                config=(1, WORKER_CPU, self.gpu_percent),
                kv_capacity_tokens=capacity,
            )
            self._next_worker_id += 1
            self.workers.append(worker)
            self._by_function[function.name].append(worker)
            self.launches += 1
            return worker
        return None

    def _pick_device(
        self, server, spec: LLMSpec
    ) -> Optional[GpuDevice]:
        """A device with SM share and memory for weights + some KV."""
        for gpu in server.gpus:
            if not gpu.can_fit(self.gpu_percent):
                continue
            headroom = gpu.memory_free_mb - spec.weights_mb
            if spec.kv_capacity_tokens(headroom) >= spec.max_prompt_tokens:
                return gpu
        return None

    # ------------------------------------------------------------------
    # ServingPlatform protocol surface
    # ------------------------------------------------------------------
    def function(self, name: str) -> FunctionSpec:
        """The deployed spec for ``name`` (KeyError when unknown)."""
        return self.functions[name]

    def instances(self, name: str) -> List[LLMWorker]:
        """The live workers currently serving ``name``."""
        return list(self._by_function.get(name, []))

    def record_invocation(self, name: str, now: float) -> None:
        """Count one arrival against ``name`` (protocol bookkeeping)."""
        self._invocations[name] = self._invocations.get(name, 0) + 1

    def control(self, name: str, rps: float, now: float) -> ControlOutcome:
        """Per-tick control: heal replica deficits after recoveries.

        Workers are not :class:`~repro.core.instance.Instance` objects,
        so the outcome is always empty.
        """
        function = self.functions.get(name)
        if function is not None:
            deficit = self.replicas - len(self._by_function[name])
            for _missing in range(deficit):
                if self._place_worker(function) is None:
                    break
        return ControlOutcome()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def admit(
        self, seq: Sequence, now: float
    ) -> Tuple[Optional[LLMWorker], Optional[str]]:
        """Route one arrival; returns (worker, None) or (None, reason)."""
        workers = self._by_function.get(seq.function)
        if not workers:
            return None, ev.DROP_NO_CAPACITY
        need = seq.total_kv_need
        fits = [w for w in workers if w.kv_reach_tokens >= need]
        if not fits:
            return None, ev.DROP_KV_INFEASIBLE
        worker = min(fits, key=lambda w: (w.load, w.worker_id))
        if len(worker.waiting) >= self.max_queue:
            return None, ev.DROP_QUEUE_FULL
        if self.admission == "slo":
            estimate = self._estimate_ttft_s(worker, seq, now)
            if estimate > seq.slo_ttft_s:
                return None, ev.DROP_SHED
        seq.worker_id = worker.worker_id
        worker.waiting.append(seq)
        return worker, None

    def _estimate_ttft_s(
        self, worker: LLMWorker, seq: Sequence, now: float
    ) -> float:
        spec = worker.spec
        eta = max(0.0, worker.busy_until - now) if worker.busy else 0.0
        if self.scheduling == "static" and worker.running:
            # The gang must fully drain before a new batch forms.
            longest = max(s.remaining_tokens for s in worker.running)
            eta += longest * spec.decode_time_s(len(worker.running))
        tokens_ahead = sum(s.prompt_tokens for s in worker.waiting)
        eta += spec.prefill_time_s(tokens_ahead + seq.prompt_tokens)
        return eta

    # ------------------------------------------------------------------
    # iteration planning (the continuous-batching core)
    # ------------------------------------------------------------------
    def begin_step(
        self, worker: LLMWorker, now: float, until: Optional[float] = None
    ) -> Optional[StepPlan]:
        """Plan the worker's next iteration, or None when idle.

        Swapped sequences rejoin first, then waiting prompts admit
        into a prefill iteration under the token budget; otherwise the
        running batch decodes one token each, preempting victims when
        the KV cache cannot grow by one token per sequence.

        ``until`` is the earliest time anything outside the worker may
        look at it.  A decode iteration then also covers the identical
        decode iterations after it that start before ``until`` (see
        :meth:`_extend_decode`); ``None`` plans one iteration.
        """
        spec = worker.spec
        swap_cost = self._admit_swapped(worker, now)
        prefill = self._admit_waiting(worker)
        plan: Optional[StepPlan] = None
        if prefill:
            batch_tokens = sum(s.prompt_tokens for s in prefill)
            for seq in prefill:
                seq.prefill_start = now
            worker.prefill_steps += 1
            worker.prompt_tokens_prefilled += batch_tokens
            plan = StepPlan(
                "prefill",
                tuple(prefill),
                batch_tokens,
                spec.prefill_time_s(batch_tokens) + swap_cost,
                now,
            )
        elif worker.running:
            running = len(worker.running)
            swap_cost += self._ensure_kv(worker, running, now)
            batch_tokens = len(worker.running)
            worker.kv_acquire(1, batch_tokens)
            for seq in worker.running:
                seq.kv_tokens += 1
            worker.decode_steps += 1
            plan = StepPlan(
                "decode",
                tuple(worker.running),
                batch_tokens,
                spec.decode_time_s(batch_tokens) + swap_cost,
                now,
            )
            if (
                until is not None
                and plan.end_s < until
                and batch_tokens == running  # nothing was evicted
                and not self.tracer.enabled
                and not self._shares_device(worker)
            ):
                self._extend_decode(worker, plan, until)
        if plan is None:
            return None
        worker.batch_token_sum += plan.batch_tokens
        worker.busy = True
        worker.busy_until = plan.end_s
        if self.tracer.enabled:
            self.tracer.emit(
                ev.LLM_STEP, now, instance=worker.worker_id, step=plan.kind,
                batch_tokens=plan.batch_tokens, sequences=len(plan.seqs),
                duration_s=plan.duration_s,
            )
        return plan

    def _shares_device(self, worker: LLMWorker) -> bool:
        """True when another live worker holds KV on ``worker``'s GPU."""
        device = worker.device
        return any(
            other.device is device and other is not worker
            for other in self.workers
        )

    def _extend_decode(
        self, worker: LLMWorker, plan: StepPlan, until: float
    ) -> None:
        """Fold the decode iterations nothing can tell apart into ``plan``.

        Runs after the plan's first decode iteration began.  The run
        takes each next iteration that would start before ``until``,
        finish no sequence early, and fit the KV cache without an
        eviction.  It first counts the iterations ``until`` and the
        shortest sequence allow, then books their KV charge with one
        :meth:`LLMWorker.kv_acquire_run` call, which stops where the
        cache would fill; the device's MB ledger books in the same
        order as iteration by iteration.  The booked iterations'
        counters and tokens are then applied at once.  The plan's
        ``end_s`` is summed one iteration at a time, as successive
        events would have summed it (again over the booked iterations
        when the cache cut the run short), and :meth:`finish_step`
        runs only the last iteration.  Admission cannot change at these
        boundaries: free KV only shrinks along the run, so whatever the
        first iteration left swapped or waiting stays so.
        """
        batch = plan.batch_tokens
        # k iterations in all, each adding one token to every sequence.
        limit = min([seq.output_tokens - seq.generated for seq in plan.seqs])
        step = worker.spec.decode_time_s(batch)
        start = end = plan.end_s
        allowed = 0
        while allowed + 1 < limit and end < until:
            end += step
            allowed += 1
        extra = worker.kv_acquire_run(batch, allowed)
        if not extra:
            return
        if extra < allowed:
            end = start
            for _ in range(extra):
                end += step
        for seq in plan.seqs:
            seq.kv_tokens += extra
            seq.generated += extra
        worker.decode_steps += extra
        worker.batch_token_sum += extra * batch
        worker.tokens_generated += extra * batch
        plan.end_s = end

    def _admit_swapped(self, worker: LLMWorker, now: float) -> float:
        """Swap eligible parked sequences back in; returns copy cost."""
        if not worker.swapped:
            return 0.0
        cost = 0.0
        # FCFS among the swapped by original arrival time.
        for seq in sorted(worker.swapped, key=lambda s: s.arrival):
            resident = seq.prompt_tokens + seq.generated
            if self.victims == "conservative":
                feasible = worker.kv_free_tokens >= seq.total_kv_need
            else:
                feasible = worker.kv_free_tokens >= resident + 1
            if not feasible:
                continue
            worker.swapped.remove(seq)
            worker.kv_acquire(resident)
            seq.kv_tokens = resident
            seq.state = SequenceState.RUNNING
            seq.admitted_seq = worker.next_admit_seq()
            worker.running.append(seq)
            worker.swap_ins += 1
            cost += worker.spec.kv_mb(resident) / SWAP_MBPS
            if self.tracer.enabled:
                self.tracer.emit(
                    ev.SWAP_IN, now, request=seq.request_id,
                    function=seq.function, instance=worker.worker_id,
                    kv_tokens=resident,
                )
        return cost

    def _admit_waiting(self, worker: LLMWorker) -> List[Sequence]:
        """Pop waiting prompts into a prefill batch (token budget B)."""
        if not worker.waiting:
            return []
        if self.scheduling == "static" and (
            worker.running or worker.swapped
        ):
            return []
        spec = worker.spec
        admitted: List[Sequence] = []
        budget = spec.max_batch_tokens
        used = 0
        while worker.waiting:
            seq = worker.waiting[0]
            if admitted and used + seq.prompt_tokens > budget:
                break
            if self.victims == "conservative":
                feasible = worker.kv_free_tokens >= seq.total_kv_need
            else:
                feasible = worker.kv_free_tokens >= seq.prompt_tokens + 1
            if not feasible:
                break  # strict FCFS: later prompts wait behind the head
            worker.waiting.popleft()
            worker.kv_acquire(seq.prompt_tokens)
            seq.kv_tokens = seq.prompt_tokens
            seq.state = SequenceState.RUNNING
            seq.admitted_seq = worker.next_admit_seq()
            worker.running.append(seq)
            admitted.append(seq)
            used += seq.prompt_tokens
        return admitted

    def _ensure_kv(
        self, worker: LLMWorker, tokens_needed: int, now: float
    ) -> float:
        """Make room for the decode iteration's +1 token per sequence.

        Victims leave LIFO (latest admitted first) and the running set
        never shrinks below one sequence; feasibility of that floor is
        guaranteed by the admission-time ``DROP_KV_INFEASIBLE`` guard.
        Returns the swap-out copy cost added to the iteration.
        """
        shortfall = tokens_needed - worker.kv_free_tokens
        if shortfall <= 0:
            return 0.0
        target = shortfall
        if self.victims == "aggressive":
            target += worker.kv_capacity_tokens // 4
        freed = 0
        cost = 0.0
        victims = sorted(
            worker.running, key=lambda s: s.admitted_seq, reverse=True
        )
        for seq in victims:
            if freed >= target or len(worker.running) <= 1:
                break
            freed += seq.kv_tokens
            cost += self._evict(worker, seq, now)
        return cost

    def _evict(
        self, worker: LLMWorker, seq: Sequence, now: float
    ) -> float:
        """Preempt one running sequence; returns the swap-out cost."""
        worker.running.remove(seq)
        released = seq.kv_tokens
        worker.kv_release(released)
        seq.kv_tokens = 0
        seq.preemptions += 1
        cost = 0.0
        if self.preemption == ev.PREEMPT_SWAP:
            seq.state = SequenceState.SWAPPED
            worker.swapped.append(seq)
            worker.swap_outs += 1
            cost = worker.spec.kv_mb(released) / SWAP_MBPS
        else:
            seq.state = SequenceState.WAITING
            seq.generated = 0  # restart from prefill
            seq.restarts += 1
            worker.waiting.appendleft(seq)
            worker.sacrifices += 1
        if self.tracer.enabled:
            self.tracer.emit(
                ev.PREEMPTION, now, request=seq.request_id,
                function=seq.function, instance=worker.worker_id,
                mode=self.preemption, policy=self.victims, kv_tokens=released,
            )
        return cost

    def finish_step(
        self, worker: LLMWorker, plan: StepPlan, now: float
    ) -> List[Sequence]:
        """Materialize the iteration's tokens; returns finished seqs."""
        worker.busy = False
        if plan.lost:
            return []
        completed: List[Sequence] = []
        generated = 0
        for seq in plan.seqs:
            if seq.state is not SequenceState.RUNNING:
                continue  # evicted by a fault between plan and finish
            seq.generated += 1
            generated += 1
            if seq.first_token_ts < 0:
                seq.first_token_ts = now
                if self.tracer.enabled:
                    self.tracer.emit(
                        ev.FIRST_TOKEN, now, request=seq.request_id,
                        function=seq.function, instance=worker.worker_id,
                        ttft_s=now - seq.arrival,
                    )
            if seq.generated >= seq.output_tokens:
                worker.running.remove(seq)
                worker.kv_release(seq.kv_tokens)
                seq.kv_tokens = 0
                seq.state = SequenceState.DONE
                completed.append(seq)
        worker.tokens_generated += generated
        return completed

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def on_server_failure(self, server_id: int, now: float) -> List[Lost]:
        """A machine died: fail it and evacuate its workers.

        Returns one ``(worker, stranded, requeue)`` per lost worker:
        running/swapped sequences lose their progress with the machine,
        waiting ones can be re-admitted elsewhere.
        """
        self.cluster.fail_server(server_id)
        lost = [w for w in self.workers if w.server_id == server_id]
        return [self._evacuate(w, release_placement=False) for w in lost]

    def kill_instance(self, function: str, now: float) -> Optional[Lost]:
        """Fault hook: tear down one healthy worker of ``function``.

        Returns its ``(worker, stranded, requeue)`` like
        :meth:`on_server_failure`, or None when nothing is running.
        """
        workers = self._by_function.get(function)
        if not workers:
            return None
        worker = max(workers, key=lambda w: w.worker_id)
        return self._evacuate(worker, release_placement=True)

    def _evacuate(self, worker: LLMWorker, release_placement: bool) -> Lost:
        """Retire ``worker``, freeing the KV cache its sequences hold.

        A crashed machine's placement is already gone with it; a killed
        worker hands its weights and placement back.
        """
        stranded = list(worker.running) + list(worker.swapped)
        requeue = list(worker.waiting)
        for seq in stranded:
            if seq.kv_tokens:
                worker.kv_release(seq.kv_tokens)
                seq.kv_tokens = 0
        worker.running.clear()
        worker.swapped.clear()
        worker.waiting.clear()
        self.workers.remove(worker)
        self._by_function[worker.function.name].remove(worker)
        for counter in self._retired:
            self._retired[counter] += getattr(worker, counter)
        if release_placement:
            worker.device.release_weights(worker.spec.weights_mb)
            self.cluster.release(worker.placement)
        return worker, stranded, requeue

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def llm_counters(self) -> Dict[str, int]:
        """Engine-side tallies folded into the report's ``llm`` block."""
        totals = dict(self._retired)
        for worker in self.workers:
            for counter in totals:
                if counter == "kv_peak_tokens":
                    totals[counter] = max(totals[counter], worker.kv_peak_tokens)
                else:
                    totals[counter] += getattr(worker, counter)
        totals["kv_capacity_tokens"] = max(
            (w.kv_capacity_tokens for w in self.workers), default=0
        )
        totals["workers"] = len(self.workers)
        return totals


class StaticBatchLLM(ContinuousBatchingLLM):
    """The static-batch adaptation: gang-scheduled request batches.

    Identical cost model and admission, but a batch is formed only
    when the previous one fully drains -- the comparison point showing
    what iteration-level scheduling buys.
    """

    def __init__(self, cluster, predictor=None, **options) -> None:
        options.setdefault("name", "llm-static")
        options["scheduling"] = "static"
        super().__init__(cluster, predictor, **options)
