"""The token-boundary discrete-event runtime for LLM serving.

Shares :class:`~repro.simulation.runtime.RuntimeCore` with the
single-shot :class:`~repro.simulation.runtime.ServingSimulation` (the
event loop, tracer, audit, fault dispatch, control-tick skeleton and
report path) but advances per *iteration* instead of per batch: each
busy worker has exactly one ``DECODE_STEP`` event in flight, and the
next iteration is planned the moment it fires.  The event ends a
prefill iteration, or a *run* of decode iterations that nothing
outside the worker can observe: the same batch decoding, no sequence
finishing early, no eviction, before the function's next arrival, the
next control tick or the next fault (see
:meth:`~repro.llm.engine.ContinuousBatchingLLM.begin_step`).  A traced
run plans one iteration per event, and its report is the same.
Per-request output lengths are sampled up front, in arrival order,
from the same seeded stream as the arrival times, so a run is a pure
function of ``(workload, platform options, seed)``.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.faults import FaultPlan
from repro.invariants import InvariantChecker
from repro.llm.engine import ContinuousBatchingLLM, LLMWorker, Lost, StepPlan
from repro.llm.sequence import Sequence, SequenceState
from repro.simulation.events import Event, EventKind
from repro.simulation.metrics import LLMRequestRecord, SimulationReport
from repro.simulation.runtime import CONTROL_INTERVAL_S, RuntimeCore
from repro.telemetry import DROP_SERVER_FAILURE, TimelineRecorder, Tracer
from repro.workloads.arrivals import sample_arrivals
from repro.workloads.trace import Trace


class LLMSimulation(RuntimeCore):
    """Replays traces against an autoregressive platform.

    Args:
        platform: a ``workload_class == "autoregressive"`` platform
            (:class:`~repro.llm.engine.ContinuousBatchingLLM` or a
            subclass).
        workload: function name -> arrival-rate trace.
        warmup_s: requests arriving earlier are excluded from stats.
        tracer: telemetry recorder (LLM steps, first tokens,
            preemptions and swap-ins land next to the standard request
            lifecycle).
        timeline: optional per-tick recorder, same file format as the
            single-shot runtime's.
        invariants: audit layer mode or a pre-built checker; the LLM
            audit adds the KV-token ledger to the standard
            conservation checks.
        faults: optional chaos plan; only server crash/recovery and
            instance kills are meaningful at token granularity -- the
            compatibility table refuses other kinds at construction.
        resilience: refused by the compatibility table (preemption
            handles recovery at token granularity); accepted only so
            a refusal names its row.
        seed: drives arrival times and per-request token lengths.
    """

    def __init__(
        self,
        platform: ContinuousBatchingLLM,
        workload: Dict[str, Trace],
        warmup_s: float = 0.0,
        tracer: Optional[Tracer] = None,
        timeline: Optional[TimelineRecorder] = None,
        invariants: Union[None, str, InvariantChecker] = None,
        faults: Union[None, FaultPlan, Dict[str, object], str] = None,
        resilience: Union[None, bool, object] = None,
        seed: int = 42,
    ) -> None:
        # repro.api imports this module, so its table is read lazily.
        from repro.api.compatibility import check, requested_features

        if platform.workload_class != "autoregressive":
            raise TypeError(
                f"{type(platform).__name__} is not an autoregressive"
                " platform; use ServingSimulation for single-shot serving"
            )
        faults = FaultPlan.coerce(faults)
        check("des", "autoregressive", requested_features(
            workload=workload, faults=faults, resilience=resilience,
        ))
        super().__init__(
            platform, workload, warmup_s, tracer, timeline, invariants,
            faults, "exact", seed,
        )
        self._request_ids = itertools.count()
        #: full token records: the report's ``llm`` block and the
        #: per-token audit read these (the metrics ledger keeps the
        #: single-shot columns only).
        self.llm_records: List[LLMRequestRecord] = []
        #: worker_id -> the plan (one iteration or a decode run) its
        #: in-flight DECODE_STEP will finish; faults mark these lost so
        #: stale events become no-ops.
        self._inflight: Dict[int, StepPlan] = {}
        #: function -> its arrival times in order, then ``inf``, and
        #: how many of them have been processed.
        self._arrival_times: Dict[str, List[float]] = {}
        self._arrivals_seen: Dict[str, int] = dict.fromkeys(workload, 0)
        self.loop.on(EventKind.DECODE_STEP, self._on_step)

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _schedule_arrivals(self) -> None:
        arrivals: List[np.ndarray] = []
        sequences: List[Sequence] = []
        for name, trace in self.workload.items():
            function = self.platform.function(name)
            spec = function.model
            times = sample_arrivals(trace, self._rng)
            arrivals.append(times)
            self._arrival_times[name] = sorted(times.tolist()) + [math.inf]
            # Token lengths draw from the same stream, in arrival
            # order, immediately after the times: the full request
            # stream is one deterministic read of the seeded rng.
            for t in times.tolist():
                sequences.append(Sequence(
                    request_id=next(self._request_ids),
                    function=name,
                    arrival=t,
                    slo_ttft_s=function.slo_s,
                    tpot_slo_s=self.platform.tpot_slo_s,
                    prompt_tokens=spec.sample_prompt_tokens(self._rng),
                    output_tokens=spec.sample_output_tokens(self._rng),
                ))
        self.loop.schedule_many(
            np.concatenate(arrivals), EventKind.ARRIVAL, sequences
        )

    # ------------------------------------------------------------------
    # arrival path
    # ------------------------------------------------------------------
    def _on_arrival(self, event: Event) -> None:
        self._arrivals_seen[event.payload.function] += 1
        super()._on_arrival(event)

    def _admit(self, seq: Sequence) -> None:
        worker, reason = self.platform.admit(seq, self.loop.now)
        if reason is not None:
            seq.state = SequenceState.DROPPED
            self._drop(seq, reason)
            return
        self._kick(worker)

    def _drop(self, seq: Sequence, reason: str) -> None:
        self.metrics.record_drop(self.loop.now, reason)
        if self._trace:
            self._record_drop(
                self.loop.now, seq.request_id, seq.function, reason
            )

    # ------------------------------------------------------------------
    # iteration lifecycle
    # ------------------------------------------------------------------
    def _kick(self, worker: LLMWorker) -> None:
        """Plan the worker's next iteration unless one is in flight."""
        if worker.busy:
            return
        name = worker.function.name
        # The earliest event that may look at the worker: its
        # function's next arrival, or the next tick or fault (both
        # still at ``now`` while their own handler runs).
        until = min(
            self._arrival_times[name][self._arrivals_seen[name]],
            self._next_tick_s,
            self._faults_due[-1] if self._faults_due else math.inf,
        )
        plan = self.platform.begin_step(worker, self.loop.now, until)
        if plan is None:
            return
        self._inflight[worker.worker_id] = plan
        self.loop.schedule(plan.end_s, EventKind.DECODE_STEP, (worker, plan))

    def _on_step(self, event: Event) -> None:
        worker, plan = event.payload
        if plan.lost:
            return  # the worker died with the iteration in flight
        now = self.loop.now
        self._inflight.pop(worker.worker_id, None)
        for seq in self.platform.finish_step(worker, plan, now):
            self._complete(seq, worker, now)
        self._kick(worker)

    def _complete(
        self, seq: Sequence, worker: LLMWorker, now: float
    ) -> None:
        ttft = seq.first_token_ts - seq.arrival
        tpot = (
            (now - seq.first_token_ts) / (seq.output_tokens - 1)
            if seq.output_tokens > 1
            else 0.0
        )
        queue_wait = max(0.0, seq.prefill_start - seq.arrival)
        record = LLMRequestRecord(
            function=seq.function,
            arrival=seq.arrival,
            completion=now,
            cold_wait_s=0.0,
            queue_wait_s=queue_wait,
            exec_s=now - seq.arrival - queue_wait,
            batch_size=1,
            config=worker.config,
            slo_s=seq.slo_ttft_s,
            prompt_tokens=seq.prompt_tokens,
            output_tokens=seq.output_tokens,
            ttft_s=ttft,
            tpot_s=tpot,
            tpot_slo_s=seq.tpot_slo_s,
            preemptions=seq.preemptions,
            restarts=seq.restarts,
        )
        self.metrics.record_completion(record)
        self.llm_records.append(record)
        if self._trace:
            # Judged on TTFT and TPOT, as the report judges it.
            self._record_complete(
                now, seq.request_id, seq.function, worker.worker_id, 0,
                record.arrival, 0.0, queue_wait, record.exec_s,
                record.latency_s, 1, record.config, record.slo_s,
                record.violated_slo,
            )

    # ------------------------------------------------------------------
    # control loop
    # ------------------------------------------------------------------
    def _control(self, name: str, now: float) -> None:
        arrivals = self._arrivals_since_tick[name]
        self._arrivals_since_tick[name] = 0
        rate = arrivals / CONTROL_INTERVAL_S
        self.platform.control(name, rate, now)
        if self.timeline is not None:
            self._sample_timeline(name, rate, now)

    def _after_control(self, now: float) -> None:
        # Healing may have added workers; put them to work.
        for worker in self.platform.workers:
            if not worker.busy and worker.has_work:
                self._kick(worker)

    def _audit_tick(self, now: float) -> None:
        self.invariants.check_llm_tick(self, now)

    def _sample_timeline(self, name: str, rate: float, now: float) -> None:
        workers = self.platform.instances(name)
        self.timeline.sample(
            t=now,
            function=name,
            rate_estimate=rate,
            oracle_rps=self.workload[name].rps_at(now),
            pending=sum(len(w.waiting) for w in workers),
            queue_depth=sum(len(w.running) + len(w.swapped) for w in workers),
            live_instances=len(workers),
            launching_instances=0,
            warm_pool="",
            weighted_usage=self.platform.cluster.weighted_used(),
            dispatch_case="",
        )

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def _handle_lost(self, lost: List[Lost]) -> None:
        """Re-account sequences that lost their machine.

        ``lost`` holds one ``(worker, stranded, requeue)`` per dead
        worker.  Running/swapped sequences lose generated tokens with
        the KV cache and are dropped; queued ones survived in the
        gateway and re-enter admission on the remaining fleet.
        """
        for worker, _stranded, _requeue in lost:
            plan = self._inflight.pop(worker.worker_id, None)
            if plan is not None:
                plan.lost = True
        for _worker, stranded, _requeue in lost:
            for seq in stranded:
                seq.state = SequenceState.DROPPED
                self._drop(seq, DROP_SERVER_FAILURE)
        for _worker, _stranded, requeue in lost:
            for seq in requeue:
                seq.state = SequenceState.WAITING
                self._admit(seq)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _audit_final(self, now: float) -> None:
        self.invariants.check_llm_final(self, now)

    def _report(self) -> SimulationReport:
        report = self.metrics.finalize(
            duration_s=self._horizon,
            warmup_s=self.warmup_s,
            launches=self.platform.launches,
        )
        report.llm = self._llm_summary()
        return report

    def _llm_summary(self) -> Dict[str, object]:
        """The ``llm`` report block: per-token latency + engine tallies."""
        records = [
            r for r in self.llm_records if r.arrival >= self.warmup_s
        ]
        counters = self.platform.llm_counters()
        ttfts = np.array([r.ttft_s for r in records])
        tpots = np.array([r.tpot_s for r in records])
        n = len(records)

        def pct(values: np.ndarray, q: float) -> float:
            """Percentile ``q`` of ``values``, 0.0 on an empty run."""
            return float(np.percentile(values, q)) if n else 0.0

        ttft_ok = sum(
            1 for r in records if r.ttft_s <= r.slo_s + 1e-9
        )
        tpot_ok = sum(
            1 for r in records if r.tpot_s <= r.tpot_slo_s + 1e-9
        )
        good_tokens = sum(
            r.output_tokens for r in records if not r.violated_slo
        )
        steps = counters["prefill_steps"] + counters["decode_steps"]
        duration = max(1e-9, self._horizon - self.warmup_s)
        return {
            "requests": n,
            "ttft_mean_s": float(ttfts.mean()) if n else 0.0,
            "ttft_p50_s": pct(ttfts, 50),
            "ttft_p95_s": pct(ttfts, 95),
            "ttft_p99_s": pct(ttfts, 99),
            "tpot_mean_s": float(tpots.mean()) if n else 0.0,
            "tpot_p50_s": pct(tpots, 50),
            "tpot_p95_s": pct(tpots, 95),
            "tpot_p99_s": pct(tpots, 99),
            "ttft_attainment": ttft_ok / n if n else 1.0,
            "tpot_attainment": tpot_ok / n if n else 1.0,
            "token_goodput_tps": good_tokens / duration,
            "tokens_generated": counters["tokens_generated"],
            "prompt_tokens_prefilled": counters["prompt_tokens_prefilled"],
            "prefill_steps": counters["prefill_steps"],
            "decode_steps": counters["decode_steps"],
            "mean_batch_tokens": (
                counters["batch_token_sum"] / steps if steps else 0.0
            ),
            "preemptions": {
                "swap": counters["swap_outs"],
                "sacrifice": counters["sacrifices"],
            },
            "swap_ins": counters["swap_ins"],
            "kv_peak_tokens": counters["kv_peak_tokens"],
            "kv_capacity_tokens": counters["kv_capacity_tokens"],
            "workers": counters["workers"],
            "scheduling": self.platform.scheduling,
            "admission": self.platform.admission,
            "preemption": self.platform.preemption,
            "victims": self.platform.victims,
            "tpot_slo_s": self.platform.tpot_slo_s,
        }

    # ------------------------------------------------------------------
    # audit-layer views (read by repro.invariants)
    # ------------------------------------------------------------------
    def sequences_in_system(self) -> Tuple[int, int, int]:
        """(waiting, running, swapped) across all live workers."""
        waiting = sum(len(w.waiting) for w in self.platform.workers)
        running = sum(len(w.running) for w in self.platform.workers)
        swapped = sum(len(w.swapped) for w in self.platform.workers)
        return waiting, running, swapped
