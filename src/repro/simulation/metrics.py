"""Metrics collection and the simulation report.

Captures per-request latency decompositions (``l = t_cold + t_batch +
t_exec``), batch/configuration usage, resource-time integrals and
cold-start counters -- everything sections 5.2 and 5.3 report.

Requests complete as members of a batch (section 3.2), so the collector
keeps a columnar ledger: arrivals, drops, four flat per-request columns
and six per-batch ones, appended once per batch and reduced with numpy.
Exact mode reduces it once, when the report is read; sketch mode folds
it into running totals whenever it fills, so its memory stays bounded.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.simulation.sketches import QuantileSketch

#: how the collector keeps latency statistics: ``"exact"`` keeps every
#: completion in the columnar ledger (full-fidelity percentiles, O(N)
#: memory); ``"sketch"`` folds a bounded ledger into running totals
#: and a mergeable quantile sketch (O(1) memory at any request count,
#: percentiles within the sketch's error bound).
METRICS_MODES = ("exact", "sketch")


@dataclass
class RequestRecord:
    """One completed request's timeline."""

    function: str
    arrival: float
    completion: float
    cold_wait_s: float
    queue_wait_s: float
    exec_s: float
    batch_size: int
    config: Tuple[int, int, int]  # (b, c, g)
    slo_s: float

    @property
    def latency_s(self) -> float:
        return self.completion - self.arrival

    @property
    def violated_slo(self) -> bool:
        return self.latency_s > self.slo_s + 1e-9


@dataclass
class LLMRequestRecord(RequestRecord):
    """One completed autoregressive request's timeline.

    Extends the single-shot record with token counts and the per-token
    latency metrics LLM serving is judged on: TTFT (time to first
    token) and TPOT (mean time per output token after the first).  SLO
    attainment is per-token -- ``slo_s`` is the TTFT SLO and
    ``tpot_slo_s`` bounds the decode rate -- so goodput counts
    completions whose whole token stream met its deadlines, not
    whose end-to-end latency beat an (irrelevant) single-shot bound.
    """

    prompt_tokens: int = 0
    output_tokens: int = 0
    ttft_s: float = 0.0
    tpot_s: float = 0.0
    tpot_slo_s: float = float("inf")
    preemptions: int = 0
    restarts: int = 0

    @property
    def violated_slo(self) -> bool:  # type: ignore[override]
        return (
            self.ttft_s > self.slo_s + 1e-9
            or self.tpot_s > self.tpot_slo_s + 1e-9
        )


class CompletionColumns(NamedTuple):
    """The completion ledger read back as one numpy array per field.

    One entry per completed request, in record order; the per-batch
    columns are expanded to every row of their batch.  Fields follow
    :class:`RequestRecord`: ``arrival`` is the SLO clock start (a
    workflow request's origin), ``function`` holds names and
    ``config`` ``(b, c, g)`` tuples (object arrays).
    """

    function: np.ndarray
    arrival: np.ndarray
    completion: np.ndarray
    cold_wait_s: np.ndarray
    queue_wait_s: np.ndarray
    exec_s: np.ndarray
    batch_size: np.ndarray
    config: np.ndarray
    slo_s: np.ndarray


def _first_seen_totals(keys: np.ndarray, weights: np.ndarray) -> Dict:
    """Sum ``weights`` per key, keys in first-seen order (as a Counter)."""
    unique, first, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    totals = np.zeros(len(unique), dtype=np.int64)
    np.add.at(totals, inverse, weights)
    order = np.argsort(first)
    return dict(zip(unique[order].tolist(), totals[order].tolist()))


@dataclass
class SimulationReport:
    """Aggregated outcome of one serving simulation."""

    duration_s: float
    arrived: int
    completed: int
    dropped: int
    slo_violations: int
    latency_mean_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    mean_cold_wait_s: float
    mean_queue_wait_s: float
    mean_exec_s: float
    #: requests served per batchsize (Fig. 13a/b).
    batch_histogram: Dict[int, int]
    #: requests served per (b, c, g) configuration (Fig. 13c).
    config_histogram: Dict[Tuple[int, int, int], int]
    #: integral of weighted (beta*cpu + gpu) resources over time.
    resource_time_weighted: float
    mean_weighted_usage: float
    peak_weighted_usage: float
    mean_fragment_ratio: float
    cold_starts: int
    launches: int
    warm_reuses: int
    #: per-function violation rates.
    per_function_violation: Dict[str, float]
    #: completed requests / weighted resource-seconds (Fig. 12 metric).
    normalized_throughput: float
    achieved_rps: float
    reserved_idle_resource_s: float
    #: CPU/GPU core-seconds for the Table 4 cost model.
    cpu_core_seconds: float
    gpu_seconds: float
    #: drop reason -> count (queue_full / no_capacity / slo_unreachable
    #: / server_failure); sums to ``dropped``.
    drop_reasons: Dict[str, int] = field(default_factory=dict)
    #: invariant-audit findings folded in under collect mode (empty
    #: when strict checking is on -- violations raise instead).
    invariant_violations: List[Dict[str, object]] = field(default_factory=list)
    #: resilience/chaos summary (availability, retries, re-dispatches,
    #: per-function MTTR); None on zero-fault runs so the report stays
    #: bit-identical to pre-faults goldens.
    resilience: Optional[Dict[str, object]] = None
    #: autoregressive-serving summary (TTFT/TPOT percentiles, token
    #: counts, preemption/swap tallies, KV-cache peaks); None on
    #: single-shot runs so those reports stay bit-identical to the
    #: pre-LLM goldens.
    llm: Optional[Dict[str, object]] = None
    #: DAG-workflow summary (workflow goodput, end-to-end percentiles,
    #: per-stage latency decomposition, co-placement hit rate); None on
    #: non-workflow runs so those reports stay bit-identical to the
    #: pre-workflow goldens.
    workflows: Optional[Dict[str, object]] = None
    #: how latency statistics were collected; "exact" reports serialise
    #: without this field so pre-sketch goldens stay bit-identical.
    metrics_mode: str = "exact"
    #: serialized latency :class:`QuantileSketch` on sketch-mode runs
    #: (mergeable across shards); None in exact mode.
    latency_sketch: Optional[Dict[str, object]] = None

    @property
    def violation_rate(self) -> float:
        if self.completed == 0:
            return 0.0
        return self.slo_violations / self.completed

    @property
    def drop_rate(self) -> float:
        if self.arrived == 0:
            return 0.0
        return self.dropped / self.arrived

    @property
    def goodput_rps(self) -> float:
        """SLO-compliant completions per second."""
        if self.duration_s <= 0:
            return 0.0
        return (self.completed - self.slo_violations) / self.duration_s

    @property
    def availability(self) -> float:
        """Fraction of arrived requests that completed (1.0 when idle)."""
        if self.arrived == 0:
            return 1.0
        return self.completed / self.arrived

    def to_dict(self) -> Dict:
        """A JSON-serialisable view (tuple keys stringified)."""
        from dataclasses import asdict

        payload = asdict(self)
        payload["config_histogram"] = {
            f"b{b}c{c}g{g}": count
            for (b, c, g), count in self.config_histogram.items()
        }
        payload["batch_histogram"] = {
            str(batch): count for batch, count in self.batch_histogram.items()
        }
        payload["violation_rate"] = self.violation_rate
        payload["drop_rate"] = self.drop_rate
        payload["goodput_rps"] = self.goodput_rps
        # Zero-fault runs must serialise exactly as they did before the
        # resilience layer existed (bit-identical golden reports), and
        # single-shot runs exactly as before the LLM subsystem.
        if self.resilience is None:
            payload.pop("resilience", None)
        if self.llm is None:
            payload.pop("llm", None)
        if self.workflows is None:
            payload.pop("workflows", None)
        if self.latency_sketch is None:
            payload.pop("metrics_mode", None)
            payload.pop("latency_sketch", None)
        return payload


#: rows a sketch-mode ledger holds before it folds them into running
#: totals; an exact-mode ledger never folds before the report.
_FOLD_ROWS = 4096

#: the latency percentiles a report carries.
_PERCENTILES = (50, 95, 99)


@dataclass
class _LedgerTotals:
    """Ledger rows reduced so far.

    The ``*_all`` terms count every row, warmup included (the
    conservation ledger); the others count kept rows only.  Tallies
    keep first-seen order; configs and functions are keyed by their
    interned ids.
    """

    arrived_all: int = 0
    arrived: int = 0
    completed_all: int = 0
    completed: int = 0
    violations: int = 0
    latency_total_all: float = 0.0
    latency_sum: float = 0.0
    cold_wait_sum: float = 0.0
    queue_wait_sum: float = 0.0
    exec_sum: float = 0.0
    drop_reasons_all: Counter = field(default_factory=Counter)
    drop_reasons: Counter = field(default_factory=Counter)
    batches: Counter = field(default_factory=Counter)
    configs: Counter = field(default_factory=Counter)
    function_rows: Counter = field(default_factory=Counter)
    function_violations: Counter = field(default_factory=Counter)


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


class MetricsCollector:
    """Accumulates simulation observations.

    Every arrival, drop and completion is appended to one ledger, and
    :meth:`finalize` reduces it with numpy.  A sketch-mode ledger is
    bounded: every ``_FOLD_ROWS`` rows it is reduced by the same code
    into running totals, then cleared.

    Args:
        metrics_mode: ``"exact"`` (default) keeps every row and every
            usage sample until the report -- the full-fidelity path
            all goldens pin.  ``"sketch"`` folds the ledger as it
            fills: kept latencies feed a mergeable
            :class:`QuantileSketch`, usage feeds running
            sample-and-hold integrators, and memory is O(1) in the
            request count.
        warmup_s: sketch mode filters the warmup transient when it
            folds (folded rows cannot be re-filtered), so the boundary
            is fixed up front; it must match the ``warmup_s`` later
            passed to :meth:`finalize`.
    """

    def __init__(self, metrics_mode: str = "exact", warmup_s: float = 0.0) -> None:
        if metrics_mode not in METRICS_MODES:
            raise ValueError(
                f"metrics_mode must be one of {METRICS_MODES},"
                f" got {metrics_mode!r}"
            )
        self.metrics_mode = metrics_mode
        self._warmup_s = float(warmup_s)
        self._fold_rows = (
            _FOLD_ROWS if metrics_mode == "sketch" else sys.maxsize
        )
        # -- the ledger --------------------------------------------------
        self._arrival_times: List[float] = []
        self._drops: List[Tuple[float, str]] = []  # (time, reason)
        # Per row (one completed request): SLO clock start, waits, SLO.
        self._origin = array("d")
        self._cold_wait = array("d")
        self._queue_wait = array("d")
        self._slo = array("d")
        # Per batch: rows recorded, executed batch size (a workflow
        # sink may record fewer rows than it executed), timing, and
        # indexes into the interned function and config tables.
        self._batch_rows = array("q")
        self._batch_size = array("q")
        self._completion = array("d")
        self._exec = array("d")
        self._function = array("q")
        self._config = array("q")
        self._function_index: Dict[str, int] = {}
        self._config_index: Dict[Tuple[int, int, int], int] = {}
        #: row -> SLO verdict, kept only for records judged by another
        #: rule than ``latency > slo`` (LLM records judge TTFT/TPOT).
        self._verdicts: Dict[int, bool] = {}
        #: rows already folded (sketch mode) and their kept latencies.
        self._totals = _LedgerTotals()
        self._latency_sketch = QuantileSketch()
        # -- usage samples (exact mode) ----------------------------------
        self._usage_samples: List[Tuple[float, float]] = []  # (time, weighted)
        self._cpu_samples: List[Tuple[float, float]] = []
        self._gpu_samples: List[Tuple[float, float]] = []
        self._fragment_samples: List[Tuple[float, float]] = []  # (time, ratio)
        # -- sample-and-hold usage integrators (sketch mode) -------------
        self._prev_usage: Optional[Tuple[float, float, float, float]] = None
        self._usage_integral = 0.0
        self._cpu_integral = 0.0
        self._gpu_integral = 0.0
        self._usage_kept_sum = 0.0
        self._usage_kept_count = 0
        self._usage_peak = 0.0
        self._fragment_sum = 0.0
        self._fragment_count = 0
        #: cumulative (time, cold_starts, launches, warm_reuses)
        #: snapshots; lets finalize subtract the warmup baseline.  One
        #: entry per control tick in both modes (O(duration), not O(N)).
        self._scaling_samples: List[Tuple[float, int, int, int]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_arrival(self, now: float = 0.0) -> None:
        arrivals = self._arrival_times
        arrivals.append(now)
        if len(arrivals) >= self._fold_rows:
            self._fold_ledger()

    def record_drop(self, now: float = 0.0, reason: str = "unspecified") -> None:
        drops = self._drops
        drops.append((now, reason))
        if len(drops) >= self._fold_rows:
            self._fold_ledger()

    @property
    def arrived(self) -> int:
        """All arrivals, warmup included (the conservation ledger)."""
        return self._totals.arrived_all + len(self._arrival_times)

    @property
    def dropped(self) -> int:
        return sum(self._totals.drop_reasons_all.values()) + len(self._drops)

    @property
    def completed_count(self) -> int:
        """All completions, warmup included (the conservation ledger).

        Invariant checks must use this, not ``len(records)`` -- a
        sketch-mode ledger holds only the rows not yet folded.
        """
        return self._totals.completed_all + len(self._origin)

    @property
    def latency_total_s(self) -> float:
        """Sum of end-to-end latencies over all completions."""
        latency = np.array(self._completion)[self._row_batches()]
        return sum(
            (latency - np.array(self._origin)).tolist(),
            self._totals.latency_total_all,
        )

    @property
    def drop_reasons(self) -> Dict[str, int]:
        return dict(
            self._totals.drop_reasons_all
            + Counter(reason for _t, reason in self._drops)
        )

    def record_batch(
        self,
        function: str,
        requests: Sequence,
        start: float,
        completion: float,
        ready_at: float,
        exec_s: float,
        config: Tuple[int, int, int],
        batch_size: int,
    ) -> None:
        """Record the completed members of one executed batch.

        Each request contributes its ``arrival`` (at this stage),
        ``origin`` (the SLO clock start) and ``slo_s``.  Its wait
        ``start - arrival`` splits into the cold wait -- the part before
        the instance was ready -- and the queue wait.  ``batch_size`` is
        the executed batch's size: a workflow sink records fewer rows
        when some roots already failed.  No reference to the requests
        is kept.
        """
        if not requests:
            return
        self._append_batch(
            function, len(requests), batch_size, completion, exec_s, config
        )
        origin = self._origin.append
        cold = self._cold_wait.append
        queue = self._queue_wait.append
        slo = self._slo.append
        for request in requests:
            # min(max(0.0, ready_at - arrival), total_wait), then
            # max(0.0, total_wait - cold_wait): the same comparisons as
            # the builtins, without their call cost on the hot path.
            arrival = request.arrival
            total_wait = start - arrival
            cold_wait = ready_at - arrival
            cold_wait = cold_wait if cold_wait > 0.0 else 0.0
            cold_wait = total_wait if total_wait < cold_wait else cold_wait
            queue_wait = total_wait - cold_wait
            queue_wait = queue_wait if queue_wait > 0.0 else 0.0
            origin(request.origin)
            cold(cold_wait)
            queue(queue_wait)
            slo(request.slo_s)
        if len(self._origin) >= self._fold_rows:
            self._fold_ledger()

    def record_completion(self, record: RequestRecord) -> None:
        """Record one completion: a batch of one in the ledger."""
        row = len(self._origin)
        self._append_batch(
            record.function, 1, record.batch_size, record.completion,
            record.exec_s, record.config,
        )
        self._origin.append(record.arrival)
        self._cold_wait.append(record.cold_wait_s)
        self._queue_wait.append(record.queue_wait_s)
        self._slo.append(record.slo_s)
        verdict = record.violated_slo
        if verdict != (record.latency_s > record.slo_s + 1e-9):
            self._verdicts[row] = verdict
        if row + 1 >= self._fold_rows:
            self._fold_ledger()

    def _append_batch(
        self,
        function: str,
        rows: int,
        batch_size: int,
        completion: float,
        exec_s: float,
        config: Tuple[int, int, int],
    ) -> None:
        function_id = self._function_index.get(function)
        if function_id is None:
            function_id = self._function_index[function] = len(
                self._function_index
            )
        config_id = self._config_index.get(config)
        if config_id is None:
            config_id = self._config_index[config] = len(self._config_index)
        self._batch_rows.append(rows)
        self._batch_size.append(batch_size)
        self._completion.append(completion)
        self._exec.append(exec_s)
        self._function.append(function_id)
        self._config.append(config_id)

    # ------------------------------------------------------------------
    # ledger views
    # ------------------------------------------------------------------
    def _row_batches(self) -> np.ndarray:
        """Each row's batch index: per-batch columns expand through it."""
        return np.repeat(
            np.arange(len(self._batch_rows)), np.array(self._batch_rows)
        )

    def _violated(self, latency: np.ndarray) -> np.ndarray:
        """Each row's SLO verdict (``latency > slo``, or its override)."""
        violated = latency > np.array(self._slo) + 1e-9
        if self._verdicts:
            violated[list(self._verdicts)] = list(self._verdicts.values())
        return violated

    def completion_columns(self) -> CompletionColumns:
        """The unfolded tail as per-field arrays.

        That is every completion in exact mode, and the rows not yet
        folded in sketch mode.
        """
        batches = self._row_batches()
        names = np.array(list(self._function_index), dtype=object)
        configs = np.fromiter(
            self._config_index, dtype=object, count=len(self._config_index)
        )
        return CompletionColumns(
            function=names[np.array(self._function)][batches],
            arrival=np.array(self._origin),
            completion=np.array(self._completion)[batches],
            cold_wait_s=np.array(self._cold_wait),
            queue_wait_s=np.array(self._queue_wait),
            exec_s=np.array(self._exec)[batches],
            batch_size=np.array(self._batch_size)[batches],
            config=configs[np.array(self._config)][batches],
            slo_s=np.array(self._slo),
        )

    @property
    def records(self) -> List[RequestRecord]:
        """One :class:`RequestRecord` per row of the unfolded tail.

        O(N) per call; for tests and audits, not the run path.  LLM
        completions come back as plain records too (the LLM runtime
        keeps its own token records).
        """
        columns = self.completion_columns()
        return [
            RequestRecord(*row)
            for row in zip(*(column.tolist() for column in columns))
        ]

    # ------------------------------------------------------------------
    # reduction
    # ------------------------------------------------------------------
    def _reduce(self, totals: _LedgerTotals, warmup_s: float) -> np.ndarray:
        """Add the kept rows held to ``totals``; return their latencies.

        A row is kept when it arrived (a completion: its SLO clock
        started) at or after ``warmup_s``.  Per-batch columns expand
        through each row's batch index, and per-batch kept-row counts
        give the histograms and tallies in first-seen (record) order.
        """
        arrivals = np.array(self._arrival_times)
        totals.arrived += int(np.count_nonzero(arrivals >= warmup_s))
        totals.drop_reasons.update(
            reason for now, reason in self._drops if now >= warmup_s
        )
        batches = self._row_batches()
        origin = np.array(self._origin)
        latency = np.array(self._completion)[batches] - origin
        kept = origin >= warmup_s
        violated = self._violated(latency)[kept]
        kept_batches = batches[kept]
        latencies = latency[kept]
        totals.completed += len(latencies)
        totals.violations += int(np.count_nonzero(violated))
        totals.latency_sum += float(np.sum(latencies))
        totals.cold_wait_sum += float(np.sum(np.array(self._cold_wait)[kept]))
        totals.queue_wait_sum += float(np.sum(np.array(self._queue_wait)[kept]))
        totals.exec_sum += float(np.sum(np.array(self._exec)[kept_batches]))
        kept_rows = np.bincount(kept_batches, minlength=len(self._batch_rows))
        kept_violations = np.bincount(
            kept_batches[violated], minlength=len(self._batch_rows)
        )
        served = np.flatnonzero(kept_rows)
        rows = kept_rows[served]
        functions = np.array(self._function)[served]
        totals.batches.update(
            _first_seen_totals(np.array(self._batch_size)[served], rows)
        )
        totals.configs.update(
            _first_seen_totals(np.array(self._config)[served], rows)
        )
        totals.function_rows.update(_first_seen_totals(functions, rows))
        totals.function_violations.update(
            _first_seen_totals(functions, kept_violations[served])
        )
        return latencies

    def _fold_ledger(self) -> None:
        """Reduce the rows held into the running totals; clear them."""
        totals = self._totals
        # The conservation terms are "folded + held"; fold the held.
        totals.arrived_all = self.arrived
        totals.completed_all = self.completed_count
        totals.latency_total_all = self.latency_total_s
        totals.drop_reasons_all = Counter(self.drop_reasons)
        add = self._latency_sketch.add
        for latency in self._reduce(totals, self._warmup_s).tolist():
            add(latency)
        for column in (
            self._arrival_times, self._drops, self._origin, self._cold_wait,
            self._queue_wait, self._slo, self._batch_rows, self._batch_size,
            self._completion, self._exec, self._function, self._config,
        ):
            del column[:]
        self._verdicts.clear()

    # ------------------------------------------------------------------
    # usage
    # ------------------------------------------------------------------
    def record_usage(
        self,
        now: float,
        weighted: float,
        cpu: float,
        gpu: float,
        fragment_ratio: float,
    ) -> None:
        if self.metrics_mode == "sketch":
            prev = self._prev_usage
            if prev is not None:
                t0, w0, c0, g0 = prev
                # Sample-and-hold segment, clipped to the warmup
                # boundary: a segment spanning it keeps its pre-warmup
                # level from warmup_s onward.
                start = t0 if t0 >= self._warmup_s else self._warmup_s
                if now > start:
                    dt = now - start
                    self._usage_integral += w0 * dt
                    self._cpu_integral += c0 * dt
                    self._gpu_integral += g0 * dt
            self._prev_usage = (now, weighted, cpu, gpu)
            if now >= self._warmup_s:
                self._usage_kept_sum += weighted
                self._usage_kept_count += 1
                if weighted > self._usage_peak:
                    self._usage_peak = weighted
                self._fragment_sum += fragment_ratio
                self._fragment_count += 1
            return
        self._usage_samples.append((now, weighted))
        self._cpu_samples.append((now, cpu))
        self._gpu_samples.append((now, gpu))
        self._fragment_samples.append((now, fragment_ratio))

    def record_scaling_state(
        self,
        now: float,
        cold_starts: int,
        launches: int,
        warm_reuses: int,
    ) -> None:
        """Snapshot the platform's *cumulative* scaling counters."""
        self._scaling_samples.append((now, cold_starts, launches, warm_reuses))

    @staticmethod
    def _integrate(samples: List[Tuple[float, float]]) -> float:
        if len(samples) < 2:
            return 0.0
        times = np.array([s[0] for s in samples])
        values = np.array([s[1] for s in samples])
        # Piecewise-constant (sample-and-hold) integral: usage stays at
        # the sampled level until the next control tick.
        return float(np.sum(values[:-1] * np.diff(times)))

    @staticmethod
    def _carry_warmup_boundary(
        samples: List[Tuple[float, float]], warmup_s: float
    ) -> List[Tuple[float, float]]:
        """Integration samples from ``warmup_s`` on, boundary carried.

        Sample-and-hold means the level last sampled *before* the
        warmup boundary still holds until the first sample after it;
        dropping that segment (the pre-fix behaviour) undercounts every
        integral whenever ``warmup_s > 0``.  The carried sample is
        clamped to ``warmup_s`` so only the post-warmup part of the
        spanning segment is counted.
        """
        kept = [s for s in samples if s[0] >= warmup_s]
        if warmup_s <= 0:
            return kept
        carry: Optional[Tuple[float, float]] = None
        for sample in samples:
            if sample[0] >= warmup_s:
                break
            carry = sample
        if carry is not None and (not kept or kept[0][0] > warmup_s):
            kept.insert(0, (warmup_s, carry[1]))
        return kept

    def _sampled_usage(self, warmup_s: float) -> Dict[str, float]:
        """The report's usage fields from the stored samples."""
        # Integrals see the boundary-spanning segment too; the mean and
        # peak stay strictly post-warmup (they describe levels, not
        # time-weighted area).
        weighted = [v for t, v in self._usage_samples if t >= warmup_s]
        fragments = [v for t, v in self._fragment_samples if t >= warmup_s]
        return {
            "resource_time_weighted": self._integrate(
                self._carry_warmup_boundary(self._usage_samples, warmup_s)
            ),
            "mean_weighted_usage": (
                float(np.mean(weighted)) if weighted else 0.0
            ),
            "peak_weighted_usage": float(np.max(weighted)) if weighted else 0.0,
            "mean_fragment_ratio": (
                float(np.mean(fragments)) if fragments else 0.0
            ),
            "cpu_core_seconds": self._integrate(
                self._carry_warmup_boundary(self._cpu_samples, warmup_s)
            ),
            "gpu_seconds": self._integrate(
                self._carry_warmup_boundary(self._gpu_samples, warmup_s)
            ) / 100.0,
        }

    def _integrated_usage(self) -> Dict[str, float]:
        """The report's usage fields from the running integrators."""
        return {
            "resource_time_weighted": self._usage_integral,
            "mean_weighted_usage": _mean(
                self._usage_kept_sum, self._usage_kept_count
            ),
            "peak_weighted_usage": self._usage_peak,
            "mean_fragment_ratio": _mean(
                self._fragment_sum, self._fragment_count
            ),
            "cpu_core_seconds": self._cpu_integral,
            "gpu_seconds": self._gpu_integral / 100.0,
        }

    def usage_timeline(self) -> List[Tuple[float, float]]:
        """(time, weighted usage) samples for provisioning plots.

        Sketch mode keeps no sample history; the timeline is empty.
        """
        return list(self._usage_samples)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def finalize(
        self,
        duration_s: float,
        cold_starts: int = 0,
        launches: int = 0,
        warm_reuses: int = 0,
        reserved_idle_resource_s: float = 0.0,
        warmup_s: float = 0.0,
    ) -> SimulationReport:
        """Aggregate into a report.

        Exact mode reduces the whole ledger once and leaves it in place
        (``records`` stays readable); sketch mode folds the tail into
        its running totals.

        Args:
            duration_s: workload horizon (seconds).
            warmup_s: requests arriving before this time are excluded
                from the statistics (discards the initial cold-start
                transient present in every freshly started platform).
        """
        if self.metrics_mode == "sketch":
            if abs(warmup_s - self._warmup_s) > 1e-12:
                raise ValueError(
                    f"sketch-mode collector was built with warmup_s="
                    f"{self._warmup_s} but finalize got {warmup_s};"
                    " folded statistics were already filtered at the"
                    " construction-time boundary"
                )
            self._fold_ledger()
            totals = self._totals
            sketch = self._latency_sketch
            percentiles = [sketch.quantile(q) for q in _PERCENTILES]
            usage = self._integrated_usage()
            mode = {"metrics_mode": "sketch", "latency_sketch": sketch.to_dict()}
        else:
            totals = _LedgerTotals()
            latencies = self._reduce(totals, warmup_s)
            percentiles = [
                float(np.percentile(latencies, q)) if len(latencies) else 0.0
                for q in _PERCENTILES
            ]
            usage = self._sampled_usage(warmup_s)
            mode = {}
        cold_starts, launches, warm_reuses = self._warmup_scaling_baseline(
            warmup_s, cold_starts, launches, warm_reuses
        )
        duration_s = max(1e-9, duration_s - warmup_s)
        completed = totals.completed
        resource_time = usage["resource_time_weighted"]
        configs = list(self._config_index)
        names = list(self._function_index)
        p50, p95, p99 = percentiles
        return SimulationReport(
            duration_s=duration_s,
            arrived=totals.arrived,
            completed=completed,
            dropped=sum(totals.drop_reasons.values()),
            slo_violations=totals.violations,
            latency_mean_s=_mean(totals.latency_sum, completed),
            latency_p50_s=p50,
            latency_p95_s=p95,
            latency_p99_s=p99,
            mean_cold_wait_s=_mean(totals.cold_wait_sum, completed),
            mean_queue_wait_s=_mean(totals.queue_wait_sum, completed),
            mean_exec_s=_mean(totals.exec_sum, completed),
            batch_histogram=dict(totals.batches),
            config_histogram={
                configs[config]: count
                for config, count in totals.configs.items()
            },
            cold_starts=cold_starts,
            launches=launches,
            warm_reuses=warm_reuses,
            per_function_violation={
                names[fn]: totals.function_violations[fn] / count
                for fn, count in totals.function_rows.items()
            },
            normalized_throughput=(
                completed / resource_time if resource_time > 0 else 0.0
            ),
            achieved_rps=completed / duration_s if duration_s > 0 else 0.0,
            reserved_idle_resource_s=reserved_idle_resource_s,
            drop_reasons=dict(totals.drop_reasons),
            **usage,
            **mode,
        )

    def _warmup_scaling_baseline(
        self,
        warmup_s: float,
        cold_starts: int,
        launches: int,
        warm_reuses: int,
    ) -> Tuple[int, int, int]:
        """Subtract the warmup portion of the cumulative scaling counters.

        The counters only move at control ticks, when snapshots are
        taken, so the last pre-warmup snapshot is exactly the warmup
        activity.  Without snapshots the totals pass through unchanged.
        """
        if warmup_s > 0 and self._scaling_samples:
            baseline = (0, 0, 0)
            for t, cold, launch, reuse in self._scaling_samples:
                if t >= warmup_s:
                    break
                baseline = (cold, launch, reuse)
            cold_starts = max(0, cold_starts - baseline[0])
            launches = max(0, launches - baseline[1])
            warm_reuses = max(0, warm_reuses - baseline[2])
        return cold_starts, launches, warm_reuses


def sample_usage(metrics: MetricsCollector, cluster, now: float) -> None:
    """Record the cluster's usage at ``now``: one control-tick sample.

    Shared by the single-shot and the LLM runtimes.
    """
    used = cluster.total_used
    metrics.record_usage(
        now,
        weighted=cluster.weighted_used(),
        cpu=used.cpu,
        gpu=used.gpu,
        fragment_ratio=cluster.fragment_ratio(),
    )
