"""Command-line interface for quick experiments.

Usage::

    python -m repro.cli list-models
    python -m repro.cli predict --model resnet-50 --batch 8 --cpu 2 --gpu 20
    python -m repro.cli capacity --app osvt --servers 8
    python -m repro.cli simulate --model resnet-50 --rps 300 --duration 120 \\
        --trace-out run.jsonl --timeline-out run.csv --output json
    python -m repro.cli simulate --faults examples/chaos_plan.json \\
        --check-invariants
    python -m repro.cli simulate --model resnet-50 --seeds 1,2,3
    python -m repro.cli trace-summary run.jsonl
    python -m repro.cli coldstart --days 2
    python -m repro.cli bench --quick event_queue fig18_largescale
    python -m repro.cli campaign run examples/campaigns/fig12_sweep.json \\
        --workers 4
    python -m repro.cli campaign report campaigns/fig12_sweep

Every subcommand prints a small table (or JSON with ``--output
json``); the heavier experiment harness lives under ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

from repro.analysis import stress_capacity
from repro.analysis.reporting import format_table
from repro.api import PLATFORMS, Experiment, make_platform
from repro.cluster import build_testbed_cluster
from repro.core import (
    FixedKeepAlive,
    FunctionSpec,
    HybridHistogramPolicy,
    build_coldstart_policy,
)
from repro.faults import ResiliencePolicy
from repro.models import LLM_ZOO, MODEL_ZOO, list_llm_models, list_models
from repro.profiling import GroundTruthExecutor, build_default_predictor
from repro.simulation import compare_policies
from repro.telemetry import (
    SUMMARY_HEADER,
    read_jsonl,
    summarize_events,
    summary_rows,
    write_chrome_trace,
    write_jsonl,
    write_timeline_csv,
)
from repro.workflows import WorkflowSpec
from repro.workloads import (
    build_osvt,
    build_qa_robot,
    coldstart_fleet_invocations,
    constant_trace,
)

#: ``--model`` choices: the Table 1 zoo, plus the LLM zoo for
#: ``simulate`` (the only subcommand that serves autoregressive models).
_TABLE1_MODELS = sorted(MODEL_ZOO)
_ANY_MODELS = _TABLE1_MODELS + sorted(LLM_ZOO)


def _cmd_list_models(_args: argparse.Namespace) -> int:
    rows = [
        [m.name, f"{m.params_millions:g}M", f"{m.gflops:g}",
         f"{m.cold_start_s:.1f}s", m.max_batch, m.description]
        for m in list_models()
    ]
    print(format_table(
        ["model", "params", "GFLOPs", "cold start", "max batch", "description"],
        rows,
    ))
    llm_rows = [
        [m.name, f"{m.params_millions:g}M", f"{m.weights_mb:,.0f} MB",
         f"{m.kv_mb_per_token:g}", m.max_batch_tokens, m.description]
        for m in list_llm_models()
    ]
    print()
    print(format_table(
        ["LLM model", "params", "weights", "KV MB/token", "token budget",
         "description"],
        llm_rows,
    ))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    predictor = build_default_predictor()
    executor = GroundTruthExecutor()
    try:
        predicted = predictor.predict(args.model, args.batch, args.cpu, args.gpu)
    except KeyError as exc:  # no profile at that configuration
        print(f"cannot predict: {exc.args[0]}", file=sys.stderr)
        return 1
    actual = executor.mean_execution_time(
        __import__("repro.models", fromlist=["get_model"]).get_model(args.model),
        args.batch, args.cpu, args.gpu,
    )
    print(format_table(
        ["model", "config", "predicted (ms)", "actual (ms)", "error"],
        [[args.model, f"(b={args.batch}, c={args.cpu}, g={args.gpu})",
          f"{predicted * 1e3:.2f}", f"{actual * 1e3:.2f}",
          f"{abs(predicted - actual) / actual:.1%}"]],
    ))
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    if args.servers < 1:
        print("--servers must be at least 1", file=sys.stderr)
        return 1
    predictor = build_default_predictor()
    app = {"osvt": build_osvt, "qa": build_qa_robot}[args.app]()
    rows = []
    for label in ("infless", "batch", "openfaas+"):
        cluster = build_testbed_cluster(num_servers=args.servers)
        result = stress_capacity(
            make_platform(label, cluster, predictor), app.functions
        )
        rows.append(
            [label, f"{result.max_app_rps:,.0f}",
             f"{result.throughput_per_resource:.2f}",
             f"{result.fragment_ratio:.1%}", result.instances]
        )
    print(format_table(
        ["system", "max app RPS", "thpt/resource", "fragments", "instances"],
        rows,
    ))
    return 0


def _parse_seed_list(raw: str) -> List[int]:
    try:
        seeds = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"--seeds wants comma-separated ints, got {raw!r}")
    if not seeds:
        raise SystemExit("--seeds wants at least one seed")
    return seeds


def _simulate_experiment(args: argparse.Namespace, seed: int) -> Experiment:
    """The experiment the simulate flags describe, run with ``seed``.

    The one builder for single and multi-seed runs: ``--seeds`` runs
    its :meth:`~repro.api.Experiment.to_spec` once per seed, so both
    paths share every flag and the construction-time validation.
    """
    options = resilience = None
    if PLATFORMS[args.platform].workload_class == "autoregressive":
        options = {"tpot_slo_s": args.tpot_slo_ms / 1e3}
        if args.preemption:
            options["preemption"] = args.preemption
        if args.victims:
            options["victims"] = args.victims
    elif args.faults is not None and not args.no_resilience:
        # Token-granularity runs recover through preemption instead of
        # the retry/deadline layer.
        resilience = ResiliencePolicy(max_retries=args.max_retries)
    workflow = functions = None
    if args.workflow is not None:
        workflow = WorkflowSpec.coerce(args.workflow)
        entry = workflow.entry
    else:
        functions = [FunctionSpec.for_model(args.model, slo_s=args.slo_ms / 1e3)]
        entry = functions[0].name
    return Experiment(
        platform=args.platform, platform_options=options,
        servers=args.servers, fleet=args.fleet, coldstart=args.coldstart,
        autoscaler=args.autoscaler, functions=functions,
        workload={entry: constant_trace(args.rps, args.duration)},
        workflow=workflow, workflow_policy=args.workflow_policy,
        warmup_s=min(20.0, args.duration / 4),
        telemetry=bool(args.trace_out or args.chrome_trace_out),
        timeline=bool(args.timeline_out or args.chrome_trace_out),
        invariants=args.check_invariants,
        faults=args.faults, resilience=resilience,
        metrics_mode=args.metrics_mode, arrival_mode=args.arrival_mode,
        arrival_window_s=args.arrival_window,
        seed=seed, engine=args.engine, hot_k=args.hot_k,
    )


def _simulate_seeds(args: argparse.Namespace, experiments: list) -> int:
    """One configuration across a seed list: mean +/- std, not a point."""
    from repro.campaign import RunSpec, run_specs_serial, summarize

    seeds = [experiment.seed for experiment in experiments]
    workflow = experiments[0].workflow
    label = workflow.name if workflow is not None else args.model
    runs = [
        RunSpec(
            campaign="simulate-seeds",
            cell={"platform": args.platform, "model": label},
            replicate=experiment.seed,
            seed=experiment.seed,
            experiment=experiment.to_spec(),
        )
        for experiment in experiments
    ]
    # The campaign runner's single-process path: serial, same executor
    # the parallel workers use.
    reports = [r["report"] for r in run_specs_serial(runs, timeout_s=None)]
    summaries = {
        name: summarize(values) for name, values in (
            ("goodput (rps)", [r["goodput_rps"] for r in reports]),
            ("p99 latency (ms)", [r["latency_p99_s"] * 1e3 for r in reports]),
            ("SLO violations (%)", [r["violation_rate"] * 1e2 for r in reports]),
        )
    }
    if args.output == "json":
        payload = {"seeds": seeds, "metrics": summaries}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = [
        [name] + [f"{stats[key]:.3f}" for key in ("mean", "std", "min", "max")]
        for name, stats in summaries.items()
    ]
    print(f"{len(seeds)} seeds: {', '.join(str(s) for s in seeds)}")
    print(format_table(["metric", "mean", "std", "min", "max"], rows))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    exports = (args.trace_out, args.chrome_trace_out, args.timeline_out)
    if args.seeds and any(exports):
        print("--seeds does not combine with trace/timeline export",
              file=sys.stderr)
        return 1
    # Fail on unwritable export paths before spending time simulating.
    for path in exports:
        if path:
            parent = os.path.dirname(path) or "."
            if not os.path.isdir(parent):
                print(f"cannot write {path}: no such directory {parent!r}",
                      file=sys.stderr)
                return 1
    seeds = _parse_seed_list(args.seeds) if args.seeds else [args.seed]
    try:
        experiments = [_simulate_experiment(args, seed) for seed in seeds]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        # Malformed --faults/--fleet/--workflow files and unsupported
        # knob combinations (the compatibility table) are rejected
        # with the reason, before any run starts.
        print(f"cannot run: {exc}", file=sys.stderr)
        return 1
    if args.seeds:
        return _simulate_seeds(args, experiments)
    experiment = experiments[0]
    try:
        report = experiment.run()
    except (ValueError, OSError) as exc:
        print(f"cannot run: {exc}", file=sys.stderr)
        return 1
    tracer, timeline = experiment.tracer, experiment.timeline
    if report.invariant_violations:
        print(
            f"{len(report.invariant_violations)} invariant violation(s)"
            " collected:",
            file=sys.stderr,
        )
        for violation in report.invariant_violations:
            print(
                f"  [{violation['invariant']}] t={violation['time']:.3f}s"
                f" {violation['message']}",
                file=sys.stderr,
            )
    if args.trace_out:
        lines = write_jsonl(tracer.events, args.trace_out)
        print(f"wrote {lines} trace events to {args.trace_out}", file=sys.stderr)
    if args.chrome_trace_out:
        count = write_chrome_trace(
            tracer.events, args.chrome_trace_out, timeline=timeline
        )
        print(
            f"wrote {count} chrome://tracing events to {args.chrome_trace_out}",
            file=sys.stderr,
        )
    if args.timeline_out:
        rows = write_timeline_csv(timeline, args.timeline_out)
        print(f"wrote {rows} timeline rows to {args.timeline_out}", file=sys.stderr)
    if args.output == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    drop_reasons = (
        ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(report.drop_reasons.items())
        )
        or "-"
    )
    rows = [
        ["completed", report.completed],
        ["achieved RPS", f"{report.achieved_rps:.1f}"],
        ["SLO violations", f"{report.violation_rate:.2%}"],
        ["drops", f"{report.drop_rate:.2%}"],
        ["drop reasons", drop_reasons],
        ["mean latency", f"{report.latency_mean_s * 1e3:.1f} ms"],
        ["p99 latency", f"{report.latency_p99_s * 1e3:.1f} ms"],
        ["batch sizes", dict(sorted(report.batch_histogram.items()))],
        ["thpt/resource", f"{report.normalized_throughput:.2f}"],
    ]
    if report.llm is not None:
        llm = report.llm
        preempts = ", ".join(
            f"{mode}={count}"
            for mode, count in sorted(llm["preemptions"].items())
            if count
        ) or "-"
        rows.extend([
            ["TTFT p50/p99",
             f"{llm['ttft_p50_s'] * 1e3:.1f} / {llm['ttft_p99_s'] * 1e3:.1f} ms"],
            ["TPOT p50/p99",
             f"{llm['tpot_p50_s'] * 1e3:.2f} / {llm['tpot_p99_s'] * 1e3:.2f} ms"],
            ["TTFT attainment", f"{llm['ttft_attainment']:.2%}"],
            ["TPOT attainment", f"{llm['tpot_attainment']:.2%}"],
            ["token goodput", f"{llm['token_goodput_tps']:.0f} tok/s"],
            ["mean batch tokens", f"{llm['mean_batch_tokens']:.1f}"],
            ["preemptions", preempts],
            ["KV peak/capacity",
             f"{llm['kv_peak_tokens']:,} / {llm['kv_capacity_tokens']:,} tokens"],
        ])
    if report.workflows is not None:
        wf = report.workflows
        p50 = wf["latency_p50_s"]
        p99 = wf["latency_p99_s"]
        e2e = (
            f"{p50 * 1e3:.1f} / {p99 * 1e3:.1f} ms"
            if p50 is not None else "-"
        )
        stage_p99 = ", ".join(
            f"{name}={stats['p99_s'] * 1e3:.1f}ms"
            for name, stats in sorted(wf["per_stage"].items())
            if stats["p99_s"] is not None
        ) or "-"
        coplace = wf.get("coplacement")
        coplace_row = "-"
        if coplace is not None and coplace["decisions"]:
            coplace_row = (
                f"{coplace['hits']}/{coplace['decisions']}"
                f" ({coplace['hit_rate']:.0%})"
            )
        rows.extend([
            ["workflow",
             f"{wf['workflow']} (SLO {wf['end_to_end_slo_s'] * 1e3:.0f} ms)"],
            ["workflow goodput", f"{wf['goodput_rps']:.1f} rps"],
            ["e2e violations", wf["violations"]],
            ["e2e p50/p99", e2e],
            ["stage p99", stage_p99],
            ["co-placement hits", coplace_row],
        ])
    if report.resilience is not None:
        summary = report.resilience
        mttr = summary.get("mttr_s") or {}
        rows.extend([
            ["availability", f"{summary['availability']:.2%}"],
            ["faults injected", summary["faults_injected"]],
            ["retries", summary["retries"]],
            ["retry completions", summary["retry_completions"]],
            ["re-dispatched", summary["redispatched"]],
            ["MTTR", ", ".join(
                f"{name}={value:.2f}s" for name, value in sorted(mttr.items())
            ) or "-"],
        ])
    print(format_table(["metric", "value"], rows))
    return 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    """Latency-decomposition breakdown of an exported JSONL trace."""
    try:
        summaries = summarize_events(read_jsonl(args.trace))
    except OSError as exc:
        print(f"cannot read trace {args.trace}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"cannot summarize {args.trace}: {exc}", file=sys.stderr)
        return 1
    if not summaries:
        print(f"no completion or drop events in {args.trace}")
        return 1
    if args.output == "json":
        payload = {
            name: {
                "completed": s.completed,
                "violations": s.violations,
                "drops": dict(sorted(s.drops.items())),
                "decomposition_s": s.decomposition(),
                "mean_latency_s": s.mean("latency_s"),
                "p95_latency_s": s.p95_latency_s(),
            }
            for name, s in summaries.items()
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(format_table(SUMMARY_HEADER, summary_rows(summaries)))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    """SLO feasibility & sizing table for one function."""
    from repro.analysis import SLOPlanner

    if args.rps < 0:
        print("--rps must be non-negative", file=sys.stderr)
        return 1
    try:
        function = FunctionSpec.for_model(args.model, slo_s=args.slo_ms / 1e3)
    except ValueError as exc:
        print(f"cannot plan: {exc}", file=sys.stderr)
        return 1
    planner = SLOPlanner(build_default_predictor())
    if not planner.is_feasible(function):
        tightest = planner.tightest_feasible_slo(function)
        floor = f"{tightest * 1e3:.0f} ms" if tightest else "unknown"
        print(
            f"{args.model} cannot meet {args.slo_ms:.0f} ms on this hardware;"
            f" tightest feasible SLO is ~{floor}"
        )
        return 1
    entries = planner.feasible_configs(function)[: args.top]
    print(format_table(
        ["config", "t_exec (ms)", "r_low", "r_up", "RPS/unit"],
        [
            [str(e.config), f"{e.t_exec_s * 1e3:.1f}", f"{e.r_low:.0f}",
             f"{e.r_up:.0f}", f"{e.density():.1f}"]
            for e in entries
        ],
    ))
    if args.rps:
        plan = planner.cheapest_plan(function, args.rps)
        if plan is None:
            print(f"\nno instance mix covers {args.rps:.0f} RPS")
            return 1
        print(f"\ncheapest mix for {args.rps:.0f} RPS"
              f" (cost {planner.plan_cost(plan):.1f} weighted units):")
        for entry in plan:
            print(f"  {entry.config}  r_up={entry.r_up:.0f}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the ``repro.bench`` suite; optionally update the perf store."""
    from repro import bench

    names = args.names or None
    try:
        results = bench.run_suite(quick=args.quick, names=names)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 1
    if args.output == "json":
        print(json.dumps(
            [result.to_dict() for result in results], indent=2, sort_keys=True
        ))
    else:
        for result in results:
            print(result.format_row())
    if args.update_store:
        path = args.store
        store = bench.load_store(path)
        entry = bench.make_entry(
            results, label=args.label, quick=args.quick
        )
        bench.append_entry(store, entry)
        written = bench.save_store(store, path)
        print(f"recorded {len(results)} result(s) in {written}", file=sys.stderr)
    return 0


def _campaign_dir(args: argparse.Namespace, spec_name: str) -> str:
    if args.dir:
        return args.dir
    return os.path.join("campaigns", spec_name)


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignSpec, default_progress, run_campaign

    try:
        spec = CampaignSpec.from_json(args.spec)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot load campaign spec {args.spec}: {exc}", file=sys.stderr)
        return 1
    campaign_dir = _campaign_dir(args, spec.name)
    try:
        outcome = run_campaign(
            spec,
            campaign_dir,
            workers=args.workers,
            timeout_s=args.timeout,
            max_retries=args.retries,
            progress=None if args.quiet else default_progress(),
        )
    except ValueError as exc:
        # Cells are validated as the grid expands, before any run.
        print(f"cannot run campaign {args.spec}: {exc}", file=sys.stderr)
        return 1
    manifest = outcome.manifest
    print(format_table(["metric", "value"], [
        ["campaign", spec.name],
        ["directory", campaign_dir],
        ["total runs", outcome.total],
        ["executed", outcome.executed],
        ["skipped (cached)", outcome.skipped],
        ["failed", len(outcome.failed)],
        ["workers", manifest["workers"]],
        ["wall clock", f"{outcome.wall_s:.1f} s"],
        ["sum of run wall times", f"{outcome.run_wall_s_total:.1f} s"],
        ["speedup vs serial", f"{manifest['speedup_vs_serial']:.2f}x"],
    ]))
    for failure in outcome.failed:
        print(
            f"FAILED {failure['spec_hash']} after {failure['attempts']}"
            f" attempt(s): {failure['error']}",
            file=sys.stderr,
        )
    return 0 if outcome.ok else 1


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignSpec, CampaignStore

    store = CampaignStore(args.dir)
    try:
        spec_payload = store.read_json("spec.json")
        if spec_payload is None:
            print(f"{args.dir} is not a campaign directory (no spec.json)",
                  file=sys.stderr)
            return 1
        spec = CampaignSpec.from_dict(spec_payload)
        hashes = [run.spec_hash() for run in spec.expand()]
    except ValueError as exc:
        print(f"cannot read campaign {args.dir}: {exc}", file=sys.stderr)
        return 1
    done = set(store.completed_hashes())
    manifest = store.read_manifest() or {}
    failed = manifest.get("failed", [])
    rows = [
        ["campaign", spec.name],
        ["total runs", len(hashes)],
        ["completed", sum(1 for h in hashes if h in done)],
        ["remaining", sum(1 for h in hashes if h not in done)],
        ["failed (last invocation)", len(failed)],
        ["stale results", len(done - set(hashes))],
    ]
    print(format_table(["metric", "value"], rows))
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CampaignStore,
        aggregate_results,
        report_csv,
        report_rows,
    )

    store = CampaignStore(args.dir)
    results = [payload for _hash, payload in store.results()]
    if not results:
        print(f"no completed runs under {args.dir}", file=sys.stderr)
        return 1
    spec_payload = store.read_json("spec.json") or {}
    report = aggregate_results(results, campaign=spec_payload.get("name", ""))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(report_csv(report))
        print(f"wrote {args.csv}", file=sys.stderr)
    if args.output == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    header, rows = report_rows(report)
    print(format_table(header, rows))
    return 0


def _out_of_range(
    counts: Sequence[Tuple[str, Optional[int]]] = (),
    amounts: Sequence[Tuple[str, float]] = (),
) -> Optional[str]:
    """The first flag outside its range, as a message (None if all fit).

    ``counts`` must be at least 1 (``None`` means "use the default");
    ``amounts`` must be positive.
    """
    for flag, value in counts:
        if value is not None and value < 1:
            return f"{flag} must be at least 1, got {value}"
    for flag, value in amounts:
        if not value > 0:
            return f"{flag} must be positive, got {value:g}"
    return None


def _cmd_campaign_shard_trace(args: argparse.Namespace) -> int:
    from repro.campaign import TraceShardConfig, run_trace_shards
    from repro.workloads import iter_azure_csv

    problem = _out_of_range(
        [("--workers", args.workers), ("--shards", args.shards),
         ("--servers", args.servers)],
        [("--slo-ms", args.slo_ms), ("--arrival-window", args.arrival_window)],
    )
    if problem:
        print(f"cannot shard trace: {problem}", file=sys.stderr)
        return 1
    try:
        traces = dict(iter_azure_csv(args.csv, limit=args.limit))
    except (OSError, ValueError) as exc:
        print(f"cannot load trace csv {args.csv}: {exc}", file=sys.stderr)
        return 1
    if not traces:
        print(f"{args.csv} holds no functions", file=sys.stderr)
        return 1
    config = TraceShardConfig(
        platform=args.platform,
        servers=args.servers,
        model=args.model,
        slo_s=args.slo_ms / 1e3,
        root_seed=args.seed,
        arrival_window_s=args.arrival_window,
    )
    result = run_trace_shards(
        traces,
        config,
        num_shards=args.shards,
        workers=args.workers,
        progress=None if args.quiet else sys.stderr.write,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    report = result["report"]
    if args.output == "json":
        payload = {k: v for k, v in report.items() if k != "latency_sketch"}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(format_table(["metric", "value"], [
        ["functions", report["functions"]],
        ["shards", result["num_shards"]],
        ["completed", report["completed"]],
        ["achieved RPS", f"{report['achieved_rps']:.1f}"],
        ["SLO violations", f"{report['violation_rate']:.2%}"],
        ["drops", f"{report['drop_rate']:.2%}"],
        ["p50 latency", f"{report['latency_p50_s'] * 1e3:.1f} ms"],
        ["p99 latency", f"{report['latency_p99_s'] * 1e3:.1f} ms"],
        ["thpt/resource", f"{report['normalized_throughput']:.2f}"],
    ]))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    handlers = {
        "run": _cmd_campaign_run,
        "status": _cmd_campaign_status,
        "report": _cmd_campaign_report,
        "shard-trace": _cmd_campaign_shard_trace,
    }
    return handlers[args.campaign_command](args)


def _cmd_fluid_validate(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.fluid.validate import (
        FIG12_VALIDATION_RPS,
        cross_validate,
        write_envelope,
    )

    if args.points:
        try:
            points = tuple(
                float(part) for part in args.points.split(",") if part
            )
        except ValueError:
            print(f"bad --points {args.points!r}: expected R1,R2,...",
                  file=sys.stderr)
            return 1
    else:
        points = FIG12_VALIDATION_RPS
    problem = _out_of_range(amounts=[("--duration", args.duration)] + [
        ("--points", point) for point in points
    ])
    if problem:
        print(f"cannot validate: {problem}", file=sys.stderr)
        return 1
    duration = args.duration
    if args.quick:
        duration = min(duration, 60.0)
        if not args.points:
            points = (150.0, 300.0, 450.0)
    payload = cross_validate(
        points, duration,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    if args.out != "-":
        target = write_envelope(
            payload, Path(args.out) if args.out else None
        )
        print(f"wrote {target}", file=sys.stderr)
    envelope = payload["envelope"]
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        rows = [
            [
                f"{point['rps']:g}",
                f"{point['goodput_rel_err']:.2%}",
                f"{point['p50_rel_err']:.2%}",
                f"{point['p99_rel_err']:.2%}",
                f"{point['violation_abs_err']:.4f}",
            ]
            for point in payload["points"]
        ]
        print(format_table(
            ["mean rps", "goodput err", "p50 err", "p99 err", "viol err"],
            rows,
        ))
        print(
            f"envelope: goodput <= {envelope['goodput_rel_err_max']:.2%}"
            f" (bound {envelope['goodput_bound']:.0%}),"
            f" p99 <= {envelope['p99_rel_err_max']:.2%}"
            f" (bound {envelope['p99_bound']:.0%})"
        )
    return 0 if envelope["within_bounds"] else 1


def _cmd_coldstart(args: argparse.Namespace) -> int:
    try:
        fleet = coldstart_fleet_invocations(duration_s=args.days * 86400.0)
        policies = [
            FixedKeepAlive(600.0),
            HybridHistogramPolicy(),
            build_coldstart_policy("lsth", gamma=args.gamma),
        ]
    except ValueError as exc:
        print(f"cannot run: {exc}", file=sys.stderr)
        return 1
    rows = [
        [ev.policy, f"{ev.cold_start_rate:.2%}",
         f"{ev.wasted_loaded_s / 3600:,.0f}h"]
        for ev in compare_policies(policies, fleet)
    ]
    print(format_table(["policy", "cold-start rate", "reserved waste"], rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="INFless reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-models", help="show the Table 1 model zoo")

    predict = sub.add_parser("predict", help="COP latency prediction")
    predict.add_argument(
        "--model", required=True, choices=_TABLE1_MODELS, metavar="MODEL",
        help="a Table 1 model (see list-models)",
    )
    predict.add_argument("--batch", type=int, default=8)
    predict.add_argument("--cpu", type=int, default=2)
    predict.add_argument("--gpu", type=int, default=20)

    capacity = sub.add_parser("capacity", help="stress-test throughput")
    capacity.add_argument("--app", default="osvt", choices=("osvt", "qa"))
    capacity.add_argument("--servers", type=int, default=8)

    simulate = sub.add_parser("simulate", help="discrete-event serving run")
    simulate.add_argument(
        "--model", default="resnet-50", choices=_ANY_MODELS, metavar="MODEL",
        help="a Table 1 model, or an LLM model on the llm platforms"
             " (see list-models)",
    )
    simulate.add_argument(
        "--platform", default="infless", choices=sorted(PLATFORMS),
        help="serving platform to run (default: infless)",
    )
    simulate.add_argument("--rps", type=float, default=300.0)
    simulate.add_argument("--duration", type=float, default=120.0)
    simulate.add_argument("--slo-ms", type=float, default=200.0)
    simulate.add_argument(
        "--tpot-slo-ms", type=float, default=100.0,
        help="per-output-token SLO for the llm/llm-static/llm-fcfs"
             " platforms (--slo-ms is then the TTFT SLO)",
    )
    simulate.add_argument(
        "--preemption", choices=("swap", "sacrifice"), default=None,
        help="KV-pressure preemption mode on llm platforms",
    )
    simulate.add_argument(
        "--victims", choices=("conservative", "aggressive"), default=None,
        help="victim-selection policy on llm platforms",
    )
    simulate.add_argument("--servers", type=int, default=8)
    simulate.add_argument(
        "--fleet", metavar="PATH", default=None,
        help="build the cluster from the FleetSpec JSON at PATH"
             " (heterogeneous GPU generations; see docs/fleet.md)."
             " Overrides --servers",
    )
    simulate.add_argument(
        "--coldstart", choices=("lsth", "swap", "fixed"), default=None,
        help="cold-start keep-alive policy (default: the paper's LSTH;"
             " swap parks idle weights in host RAM Torpor-style)",
    )
    simulate.add_argument(
        "--autoscaler", choices=("horizontal", "hybrid"),
        default="horizontal",
        help="hybrid grows live instances' GPU quota in place before"
             " spawning new ones (HAS-GPU-style vertical scaling)",
    )
    simulate.add_argument(
        "--workflow", metavar="SPEC", default=None,
        help="serve a DAG workflow instead of one function: a preset"
             " name (osvt, qa) or a WorkflowSpec JSON path; --rps"
             " drives the entry stage and --model/--slo-ms are ignored"
             " (see docs/workflows.md)",
    )
    simulate.add_argument(
        "--workflow-policy", choices=("decomposed", "independent"),
        default="decomposed",
        help="decomposed splits the end-to-end SLO across stages by"
             " predicted execution time and co-places adjacent stages;"
             " independent gives every stage the full budget (naive"
             " baseline)",
    )
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument(
        "--seeds", metavar="S1,S2,...", default=None,
        help="run the same configuration once per seed (serially, via"
             " the campaign runner) and print mean +/- std of goodput,"
             " p99 latency and SLO-violation rate",
    )
    simulate.add_argument(
        "--faults", metavar="PATH", default=None,
        help="inject the FaultPlan JSON at PATH (see docs/faults.md);"
             " enables retries/deadlines/shedding unless --no-resilience",
    )
    simulate.add_argument(
        "--no-resilience", action="store_true",
        help="run the fault plan without retries, deadlines or shedding",
    )
    simulate.add_argument(
        "--max-retries", type=int, default=2,
        help="retry budget per request when resilience is active",
    )
    simulate.add_argument(
        "--output", choices=("table", "json"), default="table",
        help="report format: human table or machine-readable JSON",
    )
    simulate.add_argument(
        "--trace-out", metavar="PATH",
        help="write the per-request JSONL trace here",
    )
    simulate.add_argument(
        "--chrome-trace-out", metavar="PATH",
        help="write a chrome://tracing / Perfetto trace_event file here",
    )
    simulate.add_argument(
        "--timeline-out", metavar="PATH",
        help="write the per-tick metrics timeline CSV here",
    )
    simulate.add_argument(
        "--check-invariants", choices=("off", "collect", "strict"),
        nargs="?", const="strict", default="off",
        help="run the conservation-invariant audit layer: collect folds"
             " findings into the report, strict (the bare-flag default)"
             " aborts on the first",
    )
    simulate.add_argument(
        "--metrics-mode", choices=("exact", "sketch"), default="exact",
        help="sketch streams latencies into a mergeable quantile sketch"
             " (O(1) memory, <=0.2%% relative error on percentiles)"
             " instead of keeping per-request records",
    )
    simulate.add_argument(
        "--arrival-mode", choices=("eager", "windowed"), default="eager",
        help="windowed samples Poisson arrivals one window at a time"
             " instead of materializing the whole trace up front",
    )
    simulate.add_argument(
        "--arrival-window", type=float, default=60.0, metavar="SECONDS",
        help="window length for --arrival-mode windowed (default: 60)",
    )
    simulate.add_argument(
        "--engine", choices=("des", "fluid", "hybrid"), default="des",
        help="simulation engine: per-request discrete events (des, the"
             " default), the O(functions) continuous fluid"
             " approximation, or hybrid (top --hot-k functions"
             " discrete, the tail fluid); see docs/fluid-model.md",
    )
    simulate.add_argument(
        "--hot-k", type=int, default=1, metavar="K",
        help="hybrid only: how many of the hottest functions run on"
             " the discrete engine (default: 1)",
    )

    trace_summary = sub.add_parser(
        "trace-summary",
        help="latency-decomposition breakdown of a JSONL trace",
    )
    trace_summary.add_argument("trace", help="JSONL trace from --trace-out")
    trace_summary.add_argument(
        "--output", choices=("table", "json"), default="table"
    )

    bench = sub.add_parser(
        "bench", help="simulator performance benchmarks (repro.bench)"
    )
    bench.add_argument(
        "names", nargs="*", metavar="NAME",
        help="benchmark subset (default: the whole suite); see"
             " docs/benchmarks.md for the catalog",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="CI smoke sizes: seconds instead of minutes",
    )
    bench.add_argument(
        "--output", choices=("table", "json"), default="table"
    )
    bench.add_argument(
        "--update-store", action="store_true",
        help="append/replace this commit's entry in the perf store",
    )
    bench.add_argument(
        "--store", metavar="PATH", default=None,
        help="perf store path (default: BENCH_sim_core.json at repo root)",
    )
    bench.add_argument(
        "--label", default="",
        help="free-form label recorded with the store entry",
    )

    campaign = sub.add_parser(
        "campaign",
        help="parallel, resumable experiment grids (repro.campaign)",
    )
    campaign_sub = campaign.add_subparsers(
        dest="campaign_command", required=True
    )

    campaign_run = campaign_sub.add_parser(
        "run", help="run (or resume) a campaign grid",
    )
    campaign_run.add_argument("spec", help="CampaignSpec JSON path")
    campaign_run.add_argument(
        "--dir", default=None,
        help="campaign store directory (default: campaigns/<name>)",
    )
    campaign_run.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: all cores; 1 = in-process)",
    )
    campaign_run.add_argument(
        "--timeout", type=float, default=None,
        help="per-run hard timeout in seconds",
    )
    campaign_run.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts for a run that raised or timed out",
    )
    campaign_run.add_argument(
        "--quiet", action="store_true", help="suppress the progress line",
    )

    campaign_status = campaign_sub.add_parser(
        "status", help="done/remaining/failed counts of a campaign dir",
    )
    campaign_status.add_argument("dir", help="campaign store directory")

    campaign_report = campaign_sub.add_parser(
        "report", help="multi-seed aggregate tables from a campaign dir",
    )
    campaign_report.add_argument("dir", help="campaign store directory")
    campaign_report.add_argument(
        "--output", choices=("table", "json"), default="table"
    )
    campaign_report.add_argument(
        "--csv", metavar="PATH", default=None,
        help="also write the tidy CSV table here",
    )

    campaign_shard = campaign_sub.add_parser(
        "shard-trace",
        help="simulate a multi-function Azure-layout trace CSV sharded"
             " across the process pool (sketch metrics, windowed"
             " arrivals; byte-identical for any worker/shard count)",
    )
    campaign_shard.add_argument("csv", help="Azure-layout trace CSV path")
    campaign_shard.add_argument(
        "--limit", type=int, default=None,
        help="only the first N functions of the CSV",
    )
    campaign_shard.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = in-process, no pool)",
    )
    campaign_shard.add_argument(
        "--shards", type=int, default=None,
        help="shard count (default: one per worker)",
    )
    campaign_shard.add_argument("--platform", default="infless",
                                choices=sorted(PLATFORMS))
    campaign_shard.add_argument("--servers", type=int, default=2)
    campaign_shard.add_argument(
        "--model", default="resnet-50", choices=_TABLE1_MODELS,
        metavar="MODEL", help="the Table 1 model every trace function runs",
    )
    campaign_shard.add_argument("--slo-ms", type=float, default=200.0)
    campaign_shard.add_argument("--seed", type=int, default=42)
    campaign_shard.add_argument(
        "--arrival-window", type=float, default=60.0, metavar="SECONDS",
        help="windowed-arrival sampling window (default: 60)",
    )
    campaign_shard.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the full result payload (per-function reports"
             " included) as JSON here",
    )
    campaign_shard.add_argument(
        "--output", choices=("table", "json"), default="table"
    )
    campaign_shard.add_argument(
        "--quiet", action="store_true", help="suppress shard progress",
    )

    fluid_validate = sub.add_parser(
        "fluid-validate",
        help="cross-validate the fluid engine against DES (Fig. 12)",
    )
    fluid_validate.add_argument(
        "--points", metavar="R1,R2,...", default=None,
        help="mean-rps operating points (default: the Fig. 12 axis"
             " 150,225,300,375,450)",
    )
    fluid_validate.add_argument(
        "--duration", type=float, default=240.0, metavar="SECONDS",
        help="horizon per operating point (default: 240)",
    )
    fluid_validate.add_argument(
        "--quick", action="store_true",
        help="CI smoke sizes: 60s horizon and three operating points",
    )
    fluid_validate.add_argument(
        "--out", "--output-file", dest="out", metavar="PATH", default=None,
        help="where to write the envelope artifact (default:"
             " benchmarks/results/fluid_envelope.json; '-' skips"
             " writing)",
    )
    fluid_validate.add_argument(
        "--output", choices=("table", "json"), default="table",
        help="report format: human table or the full envelope JSON",
    )

    coldstart = sub.add_parser("coldstart", help="keep-alive policy study")
    coldstart.add_argument("--days", type=float, default=2.0)
    coldstart.add_argument("--gamma", type=float, default=0.5)

    plan = sub.add_parser("plan", help="SLO feasibility & sizing")
    plan.add_argument(
        "--model", required=True, choices=_TABLE1_MODELS, metavar="MODEL",
        help="a Table 1 model (see list-models)",
    )
    plan.add_argument("--slo-ms", type=float, default=200.0)
    plan.add_argument("--rps", type=float, default=0.0)
    plan.add_argument("--top", type=int, default=10)

    return parser


_COMMANDS = {
    "list-models": _cmd_list_models,
    "predict": _cmd_predict,
    "capacity": _cmd_capacity,
    "simulate": _cmd_simulate,
    "fluid-validate": _cmd_fluid_validate,
    "trace-summary": _cmd_trace_summary,
    "bench": _cmd_bench,
    "campaign": _cmd_campaign,
    "coldstart": _cmd_coldstart,
    "plan": _cmd_plan,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
