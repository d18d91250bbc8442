"""Tests for the command-line interface."""

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
        import json

        assert main(
            ["simulate", "--model", "mnist", "--rps", "50", "--duration",
             "30", "--slo-ms", "100", "--output", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] > 0
        assert "drop_reasons" in payload
        assert "violation_rate" in payload

    def test_trace_and_timeline_exports(self, capsys, predictor, tmp_path):
        import json

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
        import json

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
        import json

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
