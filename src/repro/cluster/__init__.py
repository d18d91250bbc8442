"""Cluster substrate: servers, resource vectors and placement bookkeeping.

This package models the hardware testbed of the paper (Table 2): servers
with CPU cores, GPUs partitioned by SM percentage (CUDA-MPS style) and
memory. The INFless scheduler only ever observes the quota arithmetic
implemented here, which is why a simulated cluster preserves the
algorithms' behaviour (see DESIGN.md section 1).
"""

from repro.cluster.resources import (
    CPU_CORE_GFLOPS,
    GPU_TOTAL_GFLOPS,
    GPU_UNIT_GFLOPS,
    BETA,
    BETA_FLOPS,
    scarcity_beta,
    ResourceVector,
    weighted_cost,
)
from repro.cluster.server import GpuDevice, Server
from repro.cluster.cluster import Cluster, Placement
from repro.cluster.fleet import (
    DEFAULT_GPU_PROFILE,
    GPU_PROFILES,
    FleetSpec,
    GpuProfile,
    ServerGroup,
    build_testbed_cluster,
    resolve_gpu_profile,
)

__all__ = [
    "CPU_CORE_GFLOPS",
    "GPU_TOTAL_GFLOPS",
    "GPU_UNIT_GFLOPS",
    "BETA",
    "BETA_FLOPS",
    "scarcity_beta",
    "ResourceVector",
    "weighted_cost",
    "GpuDevice",
    "Server",
    "Cluster",
    "Placement",
    "build_testbed_cluster",
    "DEFAULT_GPU_PROFILE",
    "GPU_PROFILES",
    "FleetSpec",
    "GpuProfile",
    "ServerGroup",
    "resolve_gpu_profile",
]
