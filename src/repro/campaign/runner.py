"""Process-parallel, crash-resumable campaign execution.

The runner fans :class:`~repro.campaign.spec.RunSpec` cells out over a
``ProcessPoolExecutor``.  Everything that crosses the process boundary
is plain data: a worker receives a run-spec *dict*, rebuilds the
platform from the ``PLATFORMS`` registry via
:meth:`repro.api.Experiment.from_spec`, replays the run and returns the
report dict.  Results are persisted content-addressed as they arrive
(see :mod:`repro.campaign.store`), so a killed campaign resumes where
it stopped; runs that raise are retried a bounded number of times and
then recorded as failed without sinking the rest of the grid.

Wall-time per run is measured with the :mod:`repro.bench` harness so
campaign timings live in the same units as the perf store.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.bench.harness import measure
from repro.campaign.aggregate import aggregate_results, report_csv
from repro.campaign.spec import CampaignSpec, RunSpec
from repro.campaign.store import STORE_SCHEMA, CampaignStore


class RunTimeout(RuntimeError):
    """A run exceeded the campaign's per-run timeout."""


#: re-arm delay for the timeout alarm.  An alarm can be silently
#: consumed: if the signal lands while the interpreter is inside a
#: context that discards exceptions (e.g. a gc callback -- hypothesis
#: installs one, and ``measure`` calls ``gc.collect()``), the
#: ``RunTimeout`` becomes an "exception ignored" unraisable and the
#: run would proceed untimed.  Such a swallowed raise re-arms the alarm
#: after this delay, until the raise happens somewhere it propagates.
_REFIRE_S = 0.005


@contextmanager
def _time_limit(seconds: Optional[float]):
    """Abort the enclosed block after ``seconds`` via ``SIGALRM``.

    Workers are single-task processes, so an alarm in the worker's
    main thread is a genuine hard per-run timeout.  No-op when the
    platform lacks ``SIGALRM`` or we are not on the main thread.

    The handler disarms the timer before it raises, so no second alarm
    can land while the ``RunTimeout`` unwinds (or inside whatever hook
    reports it).  Only a raise that ends as an unraisable -- swallowed
    by a gc callback or a finaliser -- re-arms it.
    """
    if not seconds or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _expired(signum, frame):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        raise RunTimeout(f"run exceeded {seconds:g}s timeout")

    try:
        previous = signal.signal(signal.SIGALRM, _expired)
    except ValueError:  # not the main thread
        yield
        return
    previous_hook = sys.unraisablehook

    def _swallowed(unraisable):
        if isinstance(unraisable.exc_value, RunTimeout):
            signal.setitimer(signal.ITIMER_REAL, _REFIRE_S)
        else:
            previous_hook(unraisable)

    sys.unraisablehook = _swallowed
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        sys.unraisablehook = previous_hook
        signal.signal(signal.SIGALRM, previous)


def execute_run(
    run_dict: Dict[str, object], timeout_s: Optional[float] = None
) -> Dict[str, object]:
    """Execute one run spec; the worker-process entry point.

    Rebuilds the experiment from pure data (registry platform name +
    kwargs), runs it under the optional time limit and returns the
    storable result payload.
    """
    from repro.api import Experiment

    run = RunSpec.from_dict(run_dict)
    report_holder: Dict[str, object] = {}

    def _run() -> int:
        report = Experiment.from_spec(run.experiment).run()
        report_holder["report"] = report.to_dict()
        return report.arrived

    with _time_limit(timeout_s):
        bench = measure(f"campaign:{run.spec_hash()}", _run)
    return {
        "schema": STORE_SCHEMA,
        "campaign": run.campaign,
        "cell": run.cell,
        "replicate": run.replicate,
        "seed": run.seed,
        "spec_hash": run.spec_hash(),
        "report": report_holder["report"],
        # Timing rides along for the manifest but is excluded from
        # report.json aggregation inputs (it is machine-dependent).
        "wall_s": bench.wall_s,
        "requests_per_s": bench.events_per_s,
    }


@dataclass
class CampaignOutcome:
    """What one ``run_campaign`` invocation did."""

    total: int
    executed: int
    skipped: int
    failed: List[Dict[str, object]] = field(default_factory=list)
    wall_s: float = 0.0
    run_wall_s_total: float = 0.0
    manifest: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every executed run succeeded."""
        return not self.failed


class _Progress:
    """A single live ``done/total`` line with failures, rate and ETA."""

    def __init__(
        self, total: int, skipped: int, emit: Optional[Callable[[str], None]]
    ) -> None:
        self.total = total
        self.done = 0
        self.failed = 0
        self.skipped = skipped
        self.emit = emit
        self.started = time.monotonic()

    def update(self, *, failed: bool = False) -> None:
        """Count one finished run and redraw the progress line."""
        self.done += 1
        if failed:
            self.failed += 1
        if self.emit is None:
            return
        elapsed = max(time.monotonic() - self.started, 1e-9)
        rate = self.done / elapsed
        remaining = self.total - self.done
        eta = remaining / rate if rate > 0 else float("inf")
        self.emit(
            f"\r[{self.done + self.skipped}/{self.total + self.skipped}]"
            f" failures={self.failed} {rate:.2f} runs/s"
            f" ETA {eta:,.0f}s "
        )

    def finish(self) -> None:
        """Terminate the live line once the campaign is done."""
        if self.emit is not None and self.total:
            self.emit("\n")


def run_campaign(
    spec: CampaignSpec,
    campaign_dir: str,
    workers: Optional[int] = None,
    timeout_s: Optional[float] = None,
    max_retries: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    executor_fn: Callable[..., Dict[str, object]] = execute_run,
) -> CampaignOutcome:
    """Run (or resume) a campaign and write its aggregate report.

    Args:
        spec: the grid to run.
        campaign_dir: the store directory (created if missing).
        workers: process count; ``None`` means ``os.cpu_count()``, 1
            selects the in-process serial path (no pool -- this is the
            path ``repro simulate --seeds`` uses).
        timeout_s: per-run hard timeout (SIGALRM in the worker).
        max_retries: extra attempts for a run that raised, timed out
            or lost its worker process.
        progress: sink for the live progress line (e.g.
            ``sys.stderr.write``); None disables it.
        executor_fn: the per-run entry point; overridable so tests can
            inject crashing runs.  Must be picklable for workers > 1.

    Returns:
        The invocation outcome; ``manifest`` is also persisted to
        ``<campaign-dir>/manifest.json`` and the multi-seed aggregate
        to ``report.json`` / ``report.csv``.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    store = CampaignStore(campaign_dir)
    runs = spec.expand()
    hashes = [run.spec_hash() for run in runs]
    if len(set(hashes)) != len(hashes):
        raise ValueError(
            "campaign expands to duplicate runs -- check the axes for"
            " repeated values"
        )
    started = time.monotonic()
    store.write_json("spec.json", spec.to_dict())
    pending = [
        run for run, spec_hash in zip(runs, hashes)
        if not store.has(spec_hash)
    ]
    skipped = len(runs) - len(pending)
    tracker = _Progress(len(pending), skipped, progress)
    failed: List[Dict[str, object]] = []
    run_wall_total = 0.0

    def _record(result: Dict[str, object]) -> None:
        nonlocal run_wall_total
        run_wall_total += float(result.get("wall_s", 0.0))
        store.save(result["spec_hash"], result)
        tracker.update()

    def _give_up(run: RunSpec, error: BaseException, attempts: int) -> None:
        failed.append({
            "spec_hash": run.spec_hash(),
            "cell": run.cell,
            "replicate": run.replicate,
            "attempts": attempts,
            "error": f"{type(error).__name__}: {error}",
        })
        tracker.update(failed=True)

    if workers == 1:
        _run_serial(
            pending, executor_fn, timeout_s, max_retries, _record, _give_up
        )
    else:
        _run_pool(
            pending, executor_fn, timeout_s, max_retries, workers,
            _record, _give_up,
        )
    tracker.finish()
    wall_s = time.monotonic() - started

    report = aggregate_results(
        [payload for _hash, payload in store.results()], campaign=spec.name
    )
    store.write_json("report.json", report)
    store.write_text("report.csv", report_csv(report))
    manifest = {
        "schema": STORE_SCHEMA,
        "name": spec.name,
        "total_runs": len(runs),
        "executed": len(pending) - len(failed),
        "skipped": skipped,
        "failed": sorted(failed, key=lambda f: f["spec_hash"]),
        "stored_results": len(store.completed_hashes()),
        "workers": workers,
        "wall_s": wall_s,
        "run_wall_s_total": run_wall_total,
        # >1 means the fan-out beat the serial wall-clock of the same
        # work; the Speedup acceptance check reads this field.
        "speedup_vs_serial": run_wall_total / wall_s if wall_s > 0 else 0.0,
    }
    store.write_manifest(manifest)
    return CampaignOutcome(
        total=len(runs),
        executed=len(pending) - len(failed),
        skipped=skipped,
        failed=failed,
        wall_s=wall_s,
        run_wall_s_total=run_wall_total,
        manifest=manifest,
    )


def _run_serial(
    pending: Sequence[RunSpec],
    executor_fn: Callable[..., Dict[str, object]],
    timeout_s: Optional[float],
    max_retries: int,
    record: Callable[[Dict[str, object]], None],
    give_up: Callable[[RunSpec, BaseException, int], None],
) -> None:
    """The single-process path: same semantics, no pool."""
    for run in pending:
        attempts = 0
        while True:
            attempts += 1
            try:
                record(executor_fn(run.to_dict(), timeout_s))
                break
            except BaseException as error:  # noqa: BLE001 -- isolate runs
                if isinstance(error, KeyboardInterrupt):
                    raise
                if attempts > max_retries:
                    give_up(run, error, attempts)
                    break


def _run_pool(
    pending: Sequence[RunSpec],
    executor_fn: Callable[..., Dict[str, object]],
    timeout_s: Optional[float],
    max_retries: int,
    workers: int,
    record: Callable[[Dict[str, object]], None],
    give_up: Callable[[RunSpec, BaseException, int], None],
) -> None:
    """Fan out over a process pool, retrying crashed/raising runs.

    A worker that *raises* fails only its own future; a worker process
    that *dies* (OOM-kill, segfault) breaks the whole pool, so the
    pool is rebuilt and the unfinished runs are resubmitted, each
    charged one attempt.
    """
    # Warm the (lru-cached) predictor in the parent first: forked
    # workers inherit the cache and skip the ~1.5s profiling step.
    from repro.profiling import build_default_predictor

    build_default_predictor()
    attempts: Dict[int, int] = {index: 0 for index in range(len(pending))}
    queue: List[int] = list(range(len(pending)))
    while queue:
        resubmit: List[int] = []
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = {}
            for index in queue:
                attempts[index] += 1
                futures[pool.submit(
                    executor_fn, pending[index].to_dict(), timeout_s
                )] = index
            outstanding = set(futures)
            broken = False
            while outstanding and not broken:
                done, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in done:
                    index = futures[future]
                    try:
                        record(future.result())
                    except BaseException as error:  # noqa: BLE001
                        if isinstance(error, KeyboardInterrupt):
                            raise
                        if isinstance(error, BrokenProcessPool):
                            broken = True
                        if attempts[index] > max_retries:
                            give_up(pending[index], error, attempts[index])
                        else:
                            resubmit.append(index)
            if broken:
                # Futures stranded by the broken pool: retry or fail.
                for future in outstanding:
                    index = futures[future]
                    if attempts[index] > max_retries:
                        give_up(
                            pending[index],
                            BrokenProcessPool("worker process died"),
                            attempts[index],
                        )
                    else:
                        resubmit.append(index)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        queue = sorted(resubmit)


def run_specs_serial(
    runs: Sequence[RunSpec], timeout_s: Optional[float] = None
) -> List[Dict[str, object]]:
    """Execute runs in-process and return their payloads (no store).

    The light-weight path behind ``repro simulate --seeds``: same
    executor, same payload shape, no campaign directory.
    """
    return [execute_run(run.to_dict(), timeout_s) for run in runs]


def default_progress(stream=None) -> Callable[[str], None]:
    """A progress sink writing to ``stream`` (default stderr)."""
    target = stream if stream is not None else sys.stderr

    def emit(text: str) -> None:
        """Write one progress fragment and flush immediately."""
        target.write(text)
        target.flush()

    return emit
