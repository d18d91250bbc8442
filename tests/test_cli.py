"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_models_parses(self):
        args = build_parser().parse_args(["list-models"])
        assert args.command == "list-models"

    def test_predict_defaults(self):
        args = build_parser().parse_args(["predict", "--model", "mnist"])
        assert (args.batch, args.cpu, args.gpu) == (8, 2, 20)

    def test_capacity_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["capacity", "--app", "webshop"])

    @pytest.mark.parametrize("argv", [
        ["predict", "--model", "nosuch"],
        ["predict", "--model", "llm-125m"],
        ["plan", "--model", "nosuch", "--slo-ms", "100"],
        ["simulate", "--model", "nosuch"],
        ["campaign", "shard-trace", "trace.csv", "--model", "nosuch"],
    ])
    def test_unknown_model_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "resnet-50" in err

    def test_simulate_accepts_llm_models(self):
        args = build_parser().parse_args(
            ["simulate", "--platform", "llm", "--model", "llm-125m"]
        )
        assert args.model == "llm-125m"


class TestCommands:
    def test_list_models_output(self, capsys):
        assert main(["list-models"]) == 0
        out = capsys.readouterr().out
        assert "bert-v1" in out and "mnist" in out

    def test_predict_output(self, capsys, predictor):
        assert main(
            ["predict", "--model", "mnist", "--batch", "4", "--cpu", "1",
             "--gpu", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "(b=4, c=1, g=0)" in out

    def test_capacity_output(self, capsys, predictor):
        assert main(["capacity", "--app", "qa", "--servers", "2"]) == 0
        out = capsys.readouterr().out
        assert "infless" in out and "openfaas+" in out

    def test_simulate_output(self, capsys, predictor):
        assert main(
            ["simulate", "--model", "mnist", "--rps", "50", "--duration",
             "30", "--slo-ms", "100"]
        ) == 0
        out = capsys.readouterr().out
        assert "SLO violations" in out

    def test_coldstart_output(self, capsys):
        assert main(["coldstart", "--days", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "hhp-4h" in out and "lsth-g0.5" in out


class TestPlanCommand:
    def test_plan_feasible_output(self, capsys, predictor):
        assert main(["plan", "--model", "resnet-50", "--slo-ms", "200"]) == 0
        out = capsys.readouterr().out
        assert "t_exec" in out and "RPS/unit" in out

    def test_plan_with_sizing(self, capsys, predictor):
        assert main(
            ["plan", "--model", "mobilenet", "--slo-ms", "100", "--rps", "500"]
        ) == 0
        out = capsys.readouterr().out
        assert "cheapest mix" in out

    def test_plan_infeasible_slo(self, capsys, predictor):
        assert main(["plan", "--model", "bert-v1", "--slo-ms", "4"]) == 1
        out = capsys.readouterr().out
        assert "cannot meet" in out


class TestSimulateOutputs:
    def test_json_output(self, capsys, predictor):
        assert main(
            ["simulate", "--model", "mnist", "--rps", "50", "--duration",
             "30", "--slo-ms", "100", "--output", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] > 0
        assert "drop_reasons" in payload
        assert "violation_rate" in payload

    def test_trace_and_timeline_exports(self, capsys, predictor, tmp_path):
        trace = tmp_path / "run.jsonl"
        chrome = tmp_path / "run.chrome.json"
        timeline = tmp_path / "run.csv"
        assert main(
            ["simulate", "--model", "mnist", "--rps", "50", "--duration",
             "30", "--slo-ms", "100",
             "--trace-out", str(trace),
             "--chrome-trace-out", str(chrome),
             "--timeline-out", str(timeline)]
        ) == 0
        lines = trace.read_text().splitlines()
        assert lines and all(json.loads(line) for line in lines)
        assert json.load(open(chrome))["traceEvents"]
        assert timeline.read_text().startswith("t,function,")

    def test_trace_summary_roundtrip(self, capsys, predictor, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert main(
            ["simulate", "--model", "mnist", "--rps", "50", "--duration",
             "30", "--slo-ms", "100", "--trace-out", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["trace-summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "fn-mnist" in out and "cold (ms)" in out

    def test_trace_summary_empty_trace(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace-summary", str(empty)]) == 1


class TestScaleOutFlags:
    def test_metrics_mode_parses(self):
        args = build_parser().parse_args(["simulate", "--metrics-mode",
                                          "sketch"])
        assert args.metrics_mode == "sketch"
        assert args.arrival_mode == "eager"

    def test_unknown_metrics_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--metrics-mode", "fuzzy"])

    def test_simulate_sketch_json(self, capsys, predictor):
        assert main(
            ["simulate", "--model", "mnist", "--rps", "50", "--duration",
             "30", "--slo-ms", "100", "--metrics-mode", "sketch",
             "--arrival-mode", "windowed", "--arrival-window", "10",
             "--output", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics_mode"] == "sketch"
        assert payload["latency_sketch"]["bins"]

    def test_shard_trace_roundtrip(self, capsys, predictor, tmp_path):
        from repro.workloads import constant_trace
        from repro.workloads.azure import write_azure_csv

        path = tmp_path / "mini.csv"
        write_azure_csv(
            path,
            {f"app/f{i}": constant_trace(2.0, 180.0, step_s=60.0)
             for i in range(3)},
        )
        out_path = tmp_path / "result.json"
        assert main(
            ["campaign", "shard-trace", str(path), "--servers", "1",
             "--quiet", "--output", "json", "--out", str(out_path)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["functions"] == 3
        assert payload["completed"] > 0
        stored = json.loads(out_path.read_text())
        assert len(stored["per_function"]) == 3

    def test_shard_trace_missing_csv(self, capsys):
        assert main(
            ["campaign", "shard-trace", "/nonexistent/trace.csv", "--quiet"]
        ) == 1


REPO_ROOT = Path(__file__).resolve().parents[1]
_SMALL_RUN = ["simulate", "--model", "mnist", "--rps", "50",
              "--duration", "10", "--servers", "2", "--output", "json"]


class TestSeedsShareTheSingleRunBuilder:
    def test_seeds_honour_engine(self, capsys, predictor):
        assert main(_SMALL_RUN + ["--seed", "1", "--engine", "fluid"]) == 0
        single = json.loads(capsys.readouterr().out)["goodput_rps"]
        assert main(_SMALL_RUN + ["--seeds", "1", "--engine", "fluid"]) == 0
        seeds = json.loads(capsys.readouterr().out)
        assert seeds["metrics"]["goodput (rps)"]["values"] == [single]

    @pytest.mark.parametrize("argv", [
        ["simulate", "--workflow", "osvt", "--engine", "fluid"],
        ["simulate", "--platform", "llm", "--model", "llm-1b",
         "--metrics-mode", "sketch"],
    ], ids=["workflow-fluid", "llm-sketch"])
    def test_seeds_reject_incompatible_specs_before_running(
        self, capsys, monkeypatch, argv
    ):
        import repro.campaign

        def no_runs(*_args, **_kwargs):
            raise AssertionError("a rejected spec must not be dispatched")

        monkeypatch.setattr(repro.campaign, "run_specs_serial", no_runs)
        assert main(argv + ["--seeds", "1,2"]) == 1
        assert "cannot run: compatibility row" in capsys.readouterr().err


class TestInfeasiblePlatform:
    """BATCH has no SLO-feasible configuration for a Q&A stage: the
    run stops with a one-line reason, not a traceback."""

    @pytest.mark.parametrize("extra", [[], ["--seeds", "1,2"]],
                             ids=["single", "seeds"])
    def test_batch_qa_workflow_exits_cleanly(self, capsys, extra):
        argv = ["simulate", "--workflow", "qa", "--platform", "batch"]
        assert main(argv + extra) == 1
        err = capsys.readouterr().err
        assert "cannot run: " in err
        assert "no configuration can meet the SLO under BATCH" in err

#: (flag, a valid-looking document missing a required key).
_INPUT_FILES = {
    "--faults": {"events": [{"kind": "server_crash", "server_id": 0}]},
    "--fleet": {"groups": [{"cpu": 4}]},
    "--workflow": {"name": "w", "end_to_end_slo_s": 0.5},
    "campaign": {"axes": {"platform": ["infless"]}},
}

#: (flag, a complete document with one value of the wrong type).
_WRONG_TYPE_FILES = {
    "--faults": {"events": "x"},
    "--fleet": {"groups": "x"},
    "--workflow": {"name": "w", "end_to_end_slo_s": 0.5, "stages": "x"},
    "campaign": {
        "name": "c",
        "axes": {"platform": ["infless"]},
        "experiment": {"faults": [
            {"kind": "server_crash", "at_s": 1.0, "server_id": 0},
        ]},
    },
}


@pytest.mark.parametrize("flag", sorted(_INPUT_FILES))
@pytest.mark.parametrize(
    "content", ["list", "truncated", "missing-key", "wrong-type"]
)
def test_malformed_json_inputs_exit_without_traceback(tmp_path, flag, content):
    path = tmp_path / "input.json"
    missing_key = json.dumps(_INPUT_FILES[flag])
    path.write_text({
        "list": "[1, 2]",
        "truncated": missing_key[: len(missing_key) // 2],
        "missing-key": missing_key,
        "wrong-type": json.dumps(_WRONG_TYPE_FILES[flag]),
    }[content])
    if flag == "campaign":
        argv = ["campaign", "run", str(path), "--quiet",
                "--dir", str(tmp_path / "store")]
    else:
        argv = ["simulate", flag, str(path), "--duration", "2"]
    done = _run_cli(argv)
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("cannot ")


def _run_cli(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("argv", [
    ["predict", "--model", "resnet-50", "--batch", "-3"],
    ["predict", "--model", "resnet-50", "--gpu", "500"],
    ["plan", "--model", "resnet-50", "--slo-ms", "-5"],
    ["plan", "--model", "resnet-50", "--rps", "-1"],
    ["coldstart", "--days", "0"],
    ["coldstart", "--gamma", "-1"],
    ["capacity", "--servers", "0"],
    ["capacity", "--servers", "-2"],
    ["simulate", "--model", "mnist", "--duration", "-5"],
], ids=" ".join)
def test_bad_numeric_arguments_exit_without_traceback(argv):
    done = _run_cli(argv)
    assert done.returncode != 0
    assert "Traceback" not in done.stdout + done.stderr
    assert len(done.stderr.strip().splitlines()) == 1, done.stderr


def test_predict_at_unprofiled_config_exits_with_one_line(capsys, predictor):
    # 3 cores is not on the profiled CPU grid (1, 2, 4, 8).
    assert main(["predict", "--model", "mnist", "--cpu", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "cannot predict: operator 'Conv2D' has no profile at"
        " (b=8, c=3, g=20)\n"
    )


@pytest.mark.parametrize("argv", [
    ["fluid-validate", "--out", "-", "--duration", "0"],
    ["fluid-validate", "--out", "-", "--duration", "-3"],
    ["fluid-validate", "--out", "-", "--points", "-5"],
    ["campaign", "shard-trace", "CSV", "--workers", "0"],
    ["campaign", "shard-trace", "CSV", "--shards", "-1"],
    ["campaign", "shard-trace", "CSV", "--shards", "0"],
    ["campaign", "shard-trace", "CSV", "--servers", "0"],
    ["campaign", "shard-trace", "CSV", "--slo-ms", "-5"],
    ["campaign", "shard-trace", "CSV", "--arrival-window", "0"],
], ids=" ".join)
def test_bad_numbers_to_validate_and_shard_exit_with_one_line(tmp_path, argv):
    from repro.workloads import constant_trace
    from repro.workloads.azure import write_azure_csv

    csv = tmp_path / "mini.csv"
    write_azure_csv(
        csv, {"app/f0": constant_trace(2.0, 120.0, step_s=60.0)}
    )
    done = _run_cli([str(csv) if arg == "CSV" else arg for arg in argv])
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    assert done.stderr.startswith("cannot ")
    assert len(done.stderr.strip().splitlines()) == 1, done.stderr


@pytest.mark.parametrize("command, name, content", [
    ("trace-summary", "run.jsonl", "[1, 2]\n"),
    ("trace-summary", "run.jsonl", '{"kind": "request_complete"}\n'),
    ("trace-summary", "run.jsonl",
     '{"kind": "request_drop", "function": ["f"]}\n'),
    ("trace-summary", "run.jsonl", '{"kind": "request_drop"\n'),
    ("campaign status", "spec.json", '{"axes": {}}'),
    ("campaign status", "spec.json", "[1, 2]"),
    ("campaign status", "spec.json", '{"name": '),
], ids=[
    "summary-non-object", "summary-no-function", "summary-bad-type",
    "summary-truncated", "status-no-name", "status-non-object",
    "status-truncated",
])
def test_bad_trace_and_campaign_files_exit_with_one_line(
    tmp_path, command, name, content
):
    path = tmp_path / name
    path.write_text(content)
    target = path if command == "trace-summary" else tmp_path
    done = _run_cli(command.split() + [str(target)])
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    assert done.stderr.startswith("cannot ")
    assert len(done.stderr.strip().splitlines()) == 1, done.stderr
