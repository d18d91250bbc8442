"""repro.campaign: spec round-trip, determinism, resume, retries."""

import gc
import json
import signal
import sys
import time

import numpy as np
import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    RunSpec,
    aggregate_results,
    execute_run,
    report_csv,
    run_campaign,
    summarize,
)
from repro.campaign.aggregate import CELL_METRICS
from repro.campaign.runner import RunTimeout, _time_limit
from repro.cli import main


def quick_spec(**overrides):
    """A 2-platform x 2-replicate grid small enough for unit tests."""
    payload = {
        "name": "unit",
        "axes": {
            "platform": ["infless", "openfaas+"],
            "model": ["mobilenet"],
            "trace": ["constant"],
            "rps": [25.0],
            "slo_ms": [150.0],
            "servers": [2],
        },
        "replicates": (0, 1),
        "root_seed": 3,
        "duration_s": 6.0,
        "warmup_s": 1.0,
    }
    payload.update(overrides)
    return CampaignSpec(**payload)


class TestSpec:
    def test_json_round_trip(self, tmp_path):
        spec = quick_spec()
        path = tmp_path / "spec.json"
        spec.save(str(path))
        loaded = CampaignSpec.from_json(str(path))
        assert loaded == spec
        assert loaded.to_dict() == spec.to_dict()

    def test_expansion_is_deterministic(self):
        first = quick_spec().expand()
        second = quick_spec().expand()
        assert [r.spec_hash() for r in first] == [r.spec_hash() for r in second]
        assert [r.seed for r in first] == [r.seed for r in second]
        assert first == second

    def test_grid_size_and_cells(self):
        runs = quick_spec().expand()
        assert len(runs) == 4  # 2 platforms x 2 replicates
        platforms = {run.cell["platform"] for run in runs}
        assert platforms == {"infless", "openfaas+"}
        assert all(run.cell["servers"] == 2 for run in runs)

    def test_seeds_are_spawned_not_arithmetic(self):
        """Per-run seeds come from SeedSequence children, never root+i."""
        spec = quick_spec()
        runs = spec.expand()
        seeds = [run.seed for run in runs]
        assert len(set(seeds)) == len(seeds)
        root = spec.root_seed
        assert not any(seed in range(root, root + 64) for seed in seeds)
        # replicates of one cell differ in seed AND workload trace seed
        by_cell = {}
        for run in runs:
            by_cell.setdefault(run.cell["platform"], []).append(run)
        for cell_runs in by_cell.values():
            assert cell_runs[0].seed != cell_runs[1].seed

    def test_editing_other_cells_preserves_seeds(self):
        """Position-independent derivation: grown grids keep old hashes."""
        small = quick_spec().expand()
        grown = quick_spec(axes={
            "platform": ["infless", "openfaas+", "batch"],
            "model": ["mobilenet"],
            "trace": ["constant"],
            "rps": [25.0],
            "slo_ms": [150.0],
            "servers": [2],
        }).expand()
        small_hashes = {run.spec_hash() for run in small}
        grown_hashes = {run.spec_hash() for run in grown}
        assert small_hashes <= grown_hashes

    def test_run_spec_round_trip(self):
        run = quick_spec().expand()[0]
        rebuilt = RunSpec.from_dict(
            json.loads(json.dumps(run.to_dict()))
        )
        assert rebuilt == run
        assert rebuilt.spec_hash() == run.spec_hash()

    def test_rejects_unknown_axis_platform_and_trace(self):
        with pytest.raises(ValueError, match="unknown campaign axes"):
            quick_spec(axes={"flavor": ["a"]})
        with pytest.raises(ValueError, match="unknown platform"):
            quick_spec(axes={"platform": ["knative"]})
        with pytest.raises(ValueError, match="unknown trace kind"):
            quick_spec(axes={"trace": ["fractal"]})

    def test_faults_axis_inlines_plan_content(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "seed": 0,
            "events": [
                {"kind": "server_crash", "at_s": 3.0, "server_id": 1}
            ],
        }))
        runs = quick_spec(
            axes={
                "platform": ["infless"],
                "model": ["mobilenet"],
                "trace": ["constant"],
                "rps": [25.0],
                "slo_ms": [150.0],
                "servers": [2],
                "faults": [str(plan_path)],
            },
        ).expand()
        faults = runs[0].experiment["faults"]
        assert faults["events"][0]["kind"] == "server_crash"


class TestAggregate:
    def test_summarize_multi_seed(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats["n"] == 3
        assert stats["mean"] == pytest.approx(2.0)
        assert stats["std"] == pytest.approx(1.0)
        assert stats["ci95"] == pytest.approx(1.96 / np.sqrt(3))
        assert stats["min"] == 1.0 and stats["max"] == 3.0

    def test_summarize_single_seed_has_zero_spread(self):
        stats = summarize([4.2])
        assert stats["std"] == 0.0 and stats["ci95"] == 0.0

    def test_aggregation_is_order_independent(self):
        results = [
            {
                "cell": {"platform": p, "rps": 10.0},
                "replicate": r,
                "seed": 100 + r,
                "report": {key: float(r + 1) for _m, key in CELL_METRICS},
            }
            for p in ("a", "b") for r in (0, 1)
        ]
        forward = aggregate_results(results, campaign="x")
        backward = aggregate_results(list(reversed(results)), campaign="x")
        assert json.dumps(forward, sort_keys=True) == json.dumps(
            backward, sort_keys=True
        )

    def test_csv_is_tidy(self):
        runs = quick_spec().expand()[:1]
        payloads = [execute_run(run.to_dict()) for run in runs]
        report = aggregate_results(payloads, campaign="unit")
        csv_text = report_csv(report)
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("platform,model,trace,rps,slo_ms")
        assert len(lines) > 1


class TestRunner:
    def test_parallel_matches_serial_byte_identically(self, tmp_path):
        """The acceptance criterion: workers change nothing."""
        spec = quick_spec()
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = run_campaign(spec, str(serial_dir), workers=1)
        parallel = run_campaign(spec, str(parallel_dir), workers=4)
        assert serial.ok and parallel.ok
        assert serial.executed == parallel.executed == 4
        serial_report = (serial_dir / "report.json").read_bytes()
        parallel_report = (parallel_dir / "report.json").read_bytes()
        assert serial_report == parallel_report
        assert (serial_dir / "report.csv").read_bytes() == (
            parallel_dir / "report.csv"
        ).read_bytes()

    def test_resume_skips_completed_hashes(self, tmp_path):
        spec = quick_spec()
        campaign_dir = tmp_path / "campaign"
        first = run_campaign(spec, str(campaign_dir), workers=1)
        assert first.executed == 4 and first.skipped == 0
        report_before = (campaign_dir / "report.json").read_bytes()
        # Simulate a mid-flight kill: two results missing, no manifest.
        store = CampaignStore(str(campaign_dir))
        victims = store.completed_hashes()[:2]
        for spec_hash in victims:
            (campaign_dir / "runs" / f"{spec_hash}.json").unlink()
        (campaign_dir / "manifest.json").unlink()
        resumed = run_campaign(spec, str(campaign_dir), workers=1)
        assert resumed.executed == 2
        assert resumed.skipped == 2
        assert resumed.manifest["executed"] == 2
        assert (campaign_dir / "report.json").read_bytes() == report_before
        # A third invocation is a complete no-op.
        idle = run_campaign(spec, str(campaign_dir), workers=1)
        assert idle.executed == 0 and idle.skipped == 4

    def test_manifest_records_parallel_timing(self, tmp_path):
        spec = quick_spec()
        outcome = run_campaign(spec, str(tmp_path / "c"), workers=2)
        manifest = outcome.manifest
        assert manifest["workers"] == 2
        assert manifest["wall_s"] > 0
        assert manifest["run_wall_s_total"] > 0
        assert manifest["speedup_vs_serial"] == pytest.approx(
            manifest["run_wall_s_total"] / manifest["wall_s"]
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_run_is_retried_then_reported(self, tmp_path, workers):
        """A raising worker fails its run, not the campaign."""
        spec = quick_spec()
        marker = tmp_path / "attempts"
        marker.write_text("")
        outcome = run_campaign(
            spec,
            str(tmp_path / f"c{workers}"),
            workers=workers,
            max_retries=1,
            executor_fn=_flaky_executor_factory(str(marker)),
        )
        # 3 good runs stored; the poisoned infless/replicate-0 cell
        # fails twice (1 try + 1 retry) and is reported.
        assert outcome.executed == 3
        assert len(outcome.failed) == 1
        failure = outcome.failed[0]
        assert failure["attempts"] == 2
        assert "poisoned" in failure["error"]
        attempts = len(marker.read_text().splitlines())
        assert attempts == 2
        manifest = outcome.manifest
        assert manifest["stored_results"] == 3
        # The next invocation retries only the failed cell.
        again = run_campaign(
            spec, str(tmp_path / f"c{workers}"), workers=1,
        )
        assert again.skipped == 3 and again.executed == 1 and again.ok

    def test_transient_failure_recovers_via_retry(self, tmp_path):
        spec = quick_spec()
        marker = tmp_path / "attempts"
        marker.write_text("")
        outcome = run_campaign(
            spec,
            str(tmp_path / "c"),
            workers=1,
            max_retries=2,
            executor_fn=_flaky_executor_factory(str(marker), fail_times=1),
        )
        assert outcome.ok and outcome.executed == 4

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="needs SIGALRM"
    )
    def test_per_run_timeout_fails_the_run(self, tmp_path):
        run = quick_spec(duration_s=600.0, warmup_s=0.0).expand()[0]
        with pytest.raises(RunTimeout):
            execute_run(run.to_dict(), timeout_s=0.05)

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="needs SIGALRM"
    )
    def test_timeout_swallowed_by_gc_callback_refires(self, monkeypatch):
        """An alarm that lands in a gc callback is swallowed there; the
        limit re-arms until a ``RunTimeout`` escapes the block, and no
        ``RunTimeout`` ever reaches the unraisable hook."""
        leaked = []
        monkeypatch.setattr(sys, "unraisablehook", leaked.append)
        in_callback = []

        def slow_callback(phase, info):
            if phase == "start":
                in_callback.append(True)
                time.sleep(0.001)  # alarms land here about a third of the time

        # Busy spans of random length, so the 5 ms re-arm cannot lock
        # onto the collection's phase; young-generation collections
        # keep the time spent inside the collector itself negligible.
        rng = np.random.default_rng(7)
        gc.callbacks.append(slow_callback)  # the collector reads this list
        try:
            for _attempt in range(50):
                with pytest.raises(RunTimeout):
                    with _time_limit(0.01):
                        while True:
                            busy_s = float(rng.uniform(0.001, 0.003))
                            deadline = time.perf_counter() + busy_s
                            while time.perf_counter() < deadline:
                                pass
                            gc.collect(0)
        finally:
            gc.callbacks.remove(slow_callback)
        assert in_callback
        assert not [u for u in leaked if isinstance(u.exc_value, RunTimeout)]

    def test_duplicate_runs_rejected(self, tmp_path):
        spec = quick_spec(replicates=(0, 0))
        with pytest.raises(ValueError, match="duplicate"):
            run_campaign(spec, str(tmp_path / "c"), workers=1)


def _flaky_executor_factory(marker_path, fail_times=None):
    """An executor that fails the infless/replicate-0 run.

    Appends one line to ``marker_path`` per poisoned attempt (the file
    is shared state that survives the process boundary), failing the
    first ``fail_times`` attempts (None = always).
    """
    return _FlakyExecutor(marker_path, fail_times)


class _FlakyExecutor:
    """Picklable flaky-run injector for the retry tests."""

    def __init__(self, marker_path, fail_times):
        self.marker_path = marker_path
        self.fail_times = fail_times

    def __call__(self, run_dict, timeout_s=None):
        if (
            run_dict["cell"]["platform"] == "infless"
            and run_dict["replicate"] == 0
        ):
            with open(self.marker_path, "a", encoding="utf-8") as handle:
                handle.write("attempt\n")
            with open(self.marker_path, "r", encoding="utf-8") as handle:
                attempts = len(handle.read().splitlines())
            if self.fail_times is None or attempts <= self.fail_times:
                raise RuntimeError("poisoned run (test injection)")
        return execute_run(run_dict, timeout_s)


class TestCli:
    def test_campaign_run_status_report(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        quick_spec().save(str(spec_path))
        campaign_dir = tmp_path / "store"
        code = main([
            "campaign", "run", str(spec_path),
            "--dir", str(campaign_dir), "--workers", "1", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "executed" in out and "speedup" in out
        assert main(["campaign", "status", str(campaign_dir)]) == 0
        assert "remaining" in capsys.readouterr().out
        csv_path = tmp_path / "report.csv"
        code = main([
            "campaign", "report", str(campaign_dir),
            "--output", "json", "--csv", str(csv_path),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["campaign"] == "unit"
        assert len(payload["cells"]) == 2
        assert csv_path.read_text().startswith("platform,")

    def test_campaign_run_missing_spec_errors(self, tmp_path, capsys):
        assert main([
            "campaign", "run", str(tmp_path / "nope.json"), "--quiet",
            "--dir", str(tmp_path / "d"),
        ]) == 1
        assert "cannot load" in capsys.readouterr().err

    def test_campaign_status_on_non_campaign_dir(self, tmp_path, capsys):
        assert main(["campaign", "status", str(tmp_path)]) == 1
        assert "spec.json" in capsys.readouterr().err

    def test_simulate_seeds_prints_spread(self, capsys):
        code = main([
            "simulate", "--model", "mobilenet", "--rps", "20",
            "--duration", "5", "--servers", "2", "--seeds", "1,2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean" in out and "std" in out
        assert "2 seeds" in out

    def test_simulate_seeds_json(self, capsys):
        code = main([
            "simulate", "--model", "mobilenet", "--rps", "20",
            "--duration", "5", "--servers", "2", "--seeds", "1,2",
            "--output", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seeds"] == [1, 2]
        assert payload["metrics"]["goodput (rps)"]["n"] == 2

    def test_simulate_seeds_rejects_exports(self, capsys):
        assert main([
            "simulate", "--seeds", "1,2", "--trace-out", "/tmp/x.jsonl",
        ]) == 1
        assert "does not combine" in capsys.readouterr().err

    def test_simulate_seeds_rejects_garbage(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--seeds", "one,two"])
