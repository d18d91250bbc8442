"""INFless reproduction: a native serverless inference system.

A from-scratch Python implementation of *INFless: A Native Serverless
System for Low-Latency, High-Throughput Inference* (Yang et al.,
ASPLOS 2022) together with every substrate its evaluation depends on:
a calibrated cluster/hardware simulator, an operator-level DNN cost
model, the Table 1 model zoo, combined operator profiling, workload
generators, a discrete-event serving runtime, and the paper's
baselines (OpenFaaS+, BATCH, BATCH+RS, an AWS-Lambda model).

Quickstart::

    from repro import (
        INFlessEngine, FunctionSpec, build_testbed_cluster,
        GroundTruthExecutor, ServingSimulation, constant_trace,
    )

    cluster = build_testbed_cluster()
    engine = INFlessEngine(cluster)
    engine.deploy(FunctionSpec.for_model("resnet-50", slo_s=0.2))
    sim = ServingSimulation(
        engine, GroundTruthExecutor(),
        {"fn-resnet-50": constant_trace(300.0, 120.0)},
    )
    report = sim.run()
    print(report.violation_rate, report.batch_histogram)
"""

from repro.cluster import (
    BETA,
    Cluster,
    FleetSpec,
    GpuProfile,
    ResourceVector,
    Server,
    ServerGroup,
    build_testbed_cluster,
)
from repro.core import (
    AutoScaler,
    BatchQueue,
    FixedKeepAlive,
    FunctionSpec,
    GreedyScheduler,
    HybridAutoScaler,
    HybridHistogramPolicy,
    INFlessEngine,
    Instance,
    InstanceState,
    LongShortTermHistogram,
    SwapKeepAlive,
    build_coldstart_policy,
    rate_bounds,
)
from repro.models import MODEL_ZOO, ModelSpec, get_model, list_models
from repro.profiling import (
    ConfigSpace,
    GroundTruthExecutor,
    InstanceConfig,
    LatencyPredictor,
    OperatorProfiler,
    ProfileDatabase,
    build_default_predictor,
)
from repro.workloads import (
    Application,
    Trace,
    build_osvt,
    build_qa_robot,
    constant_trace,
)
from repro.simulation import ServingSimulation, SimulationReport
from repro.baselines import BatchOTP, BatchRS, LambdaLike, OpenFaaSPlus
from repro.faults import FaultPlan, ResiliencePolicy
from repro.api import Experiment, make_platform

__version__ = "1.0.0"

__all__ = [
    "BETA",
    "Cluster",
    "FleetSpec",
    "GpuProfile",
    "ResourceVector",
    "Server",
    "ServerGroup",
    "build_testbed_cluster",
    "AutoScaler",
    "BatchQueue",
    "FixedKeepAlive",
    "FunctionSpec",
    "GreedyScheduler",
    "HybridAutoScaler",
    "HybridHistogramPolicy",
    "INFlessEngine",
    "Instance",
    "InstanceState",
    "LongShortTermHistogram",
    "SwapKeepAlive",
    "build_coldstart_policy",
    "rate_bounds",
    "MODEL_ZOO",
    "ModelSpec",
    "get_model",
    "list_models",
    "ConfigSpace",
    "GroundTruthExecutor",
    "InstanceConfig",
    "LatencyPredictor",
    "OperatorProfiler",
    "ProfileDatabase",
    "build_default_predictor",
    "Application",
    "Trace",
    "build_osvt",
    "build_qa_robot",
    "constant_trace",
    "ServingSimulation",
    "SimulationReport",
    "BatchOTP",
    "BatchRS",
    "LambdaLike",
    "OpenFaaSPlus",
    "FaultPlan",
    "ResiliencePolicy",
    "Experiment",
    "make_platform",
    "__version__",
]
