"""Declarative fleet specification: GPU generations and server groups.

The paper evaluates on a homogeneous 16-GPU testbed (Table 2), but a
production fleet mixes GPU generations.  This module describes such a
fleet declaratively:

* :class:`GpuProfile` -- one GPU generation: SM units, per-unit
  GFLOPs (parameterized off the ``repro.ops`` roofline constants),
  device memory and PCIe bandwidth (the swap-in cost of the
  Torpor-style cold-start policy).
* :class:`ServerGroup` -- ``count`` identical servers of one shape.
* :class:`FleetSpec` -- an ordered list of groups with JSON
  round-trip (``to_dict``/``from_dict``) so fleets can be swept as a
  campaign axis or passed to ``cli simulate --fleet fleet.json``.

The legacy ``servers=N`` facade knob is exactly
``FleetSpec.homogeneous(N)``: eight 16-core boxes with two
2080Ti-class GPUs each.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.cluster.cluster import Cluster
from repro.cluster.resources import GPU_UNIT_GFLOPS
from repro.cluster.server import Server


@dataclass(frozen=True)
class GpuProfile:
    """One GPU generation, in the units the roofline model speaks.

    Attributes:
        name: registry key (``"2080ti"``, ``"t4"``, ``"a100"``).
        sm_units: schedulable quota units per device (MPS percentage
            points; 100 for every preset so ``<b, c, g>`` configs stay
            comparable across generations).
        gflops_per_unit: sustained GFLOPs delivered per quota unit;
            the generation's speed knob.
        memory_gb: device memory (bounds model weights + KV residency).
        pcie_gbps: effective host<->device bandwidth; prices the
            swap-in delay of :class:`~repro.core.swap.SwapKeepAlive`.
    """

    name: str
    sm_units: int = 100
    gflops_per_unit: float = GPU_UNIT_GFLOPS
    memory_gb: float = 11.0
    pcie_gbps: float = 12.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("GpuProfile needs a non-empty name")
        if self.sm_units <= 0:
            raise ValueError("sm_units must be positive")
        if self.gflops_per_unit <= 0:
            raise ValueError("gflops_per_unit must be positive")
        if self.memory_gb <= 0:
            raise ValueError("memory_gb must be positive")
        if self.pcie_gbps <= 0:
            raise ValueError("pcie_gbps must be positive")

    @property
    def total_gflops(self) -> float:
        """Full-device throughput (all quota units)."""
        return self.sm_units * self.gflops_per_unit

    def swap_in_delay_s(self, weights_mb: float) -> float:
        """PCIe transfer time for ``weights_mb`` of model weights."""
        return (weights_mb / 1024.0) / self.pcie_gbps

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON specs."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "GpuProfile":
        """Inverse of :meth:`to_dict`."""
        return cls(**payload)


#: Turing consumer card of the paper's testbed: the baseline the
#: roofline constants (``GPU_UNIT_GFLOPS``) were calibrated against.
RTX_2080TI = GpuProfile(
    name="2080ti", gflops_per_unit=GPU_UNIT_GFLOPS,
    memory_gb=11.0, pcie_gbps=12.0,
)
#: Inference accelerator: ~0.6x the 2080Ti's sustained rate, more
#: memory, same PCIe 3.0 link.
T4 = GpuProfile(
    name="t4", gflops_per_unit=0.60 * GPU_UNIT_GFLOPS,
    memory_gb=16.0, pcie_gbps=12.0,
)
#: Ampere datacenter card: ~1.45x sustained rate, 40 GB, PCIe 4.0.
A100 = GpuProfile(
    name="a100", gflops_per_unit=1.45 * GPU_UNIT_GFLOPS,
    memory_gb=40.0, pcie_gbps=24.0,
)

GPU_PROFILES: Dict[str, GpuProfile] = {
    profile.name: profile for profile in (RTX_2080TI, T4, A100)
}

#: The generation every profile-less :class:`Server` is assumed to be.
DEFAULT_GPU_PROFILE = RTX_2080TI


def resolve_gpu_profile(
    value: Union[str, GpuProfile, Dict[str, object]],
) -> GpuProfile:
    """Coerce a registry name, dict or profile object to a profile."""
    if isinstance(value, GpuProfile):
        return value
    if isinstance(value, dict):
        return GpuProfile.from_dict(value)
    try:
        return GPU_PROFILES[value]
    except (KeyError, TypeError):
        known = ", ".join(sorted(GPU_PROFILES))
        raise ValueError(
            f"unknown GPU profile {value!r} (known: {known})"
        ) from None


def is_default_profile(profile: Optional[GpuProfile]) -> bool:
    """True when ``profile`` is the calibration baseline (or unset)."""
    return profile is None or profile == DEFAULT_GPU_PROFILE


def server_gpu_profile(server: Server) -> GpuProfile:
    """The generation of a server's GPUs (baseline when unset)."""
    return server.gpu_profile or DEFAULT_GPU_PROFILE


def profile_map(cluster: Cluster) -> Dict[int, GpuProfile]:
    """server_id -> non-default GPU profile, for generation-aware paths.

    Empty for a homogeneous baseline fleet, which lets hot paths keep
    their profile-free fast path bit-identical.
    """
    out: Dict[int, GpuProfile] = {}
    for server in cluster.servers:
        if server.num_gpus <= 0:
            continue
        profile = server.gpu_profile
        if profile is not None and not is_default_profile(profile):
            out[server.server_id] = profile
    return out


def hardware_for_profile(profile: GpuProfile):
    """Map a GPU generation onto the roofline hardware model.

    Returns the shared :data:`~repro.ops.costmodel.DEFAULT_HARDWARE`
    object for baseline-rate profiles so default-path caches keyed on
    hardware identity stay warm.
    """
    from repro.ops.costmodel import DEFAULT_HARDWARE

    if profile.total_gflops == DEFAULT_HARDWARE.gpu_total_gflops:
        return DEFAULT_HARDWARE
    return dataclasses.replace(
        DEFAULT_HARDWARE, gpu_total_gflops=profile.total_gflops
    )


@dataclass(frozen=True)
class ServerGroup:
    """``count`` identical servers of one shape."""

    count: int
    cpu: int = 16
    host_mem_gb: float = 128.0
    gpus: int = 2
    gpu_profile: str = DEFAULT_GPU_PROFILE.name

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("ServerGroup.count must be positive")
        if self.cpu <= 0:
            raise ValueError("ServerGroup.cpu must be positive")
        if self.host_mem_gb <= 0:
            raise ValueError("ServerGroup.host_mem_gb must be positive")
        if self.gpus < 0:
            raise ValueError("ServerGroup.gpus cannot be negative")
        resolve_gpu_profile(self.gpu_profile)  # validate the name early

    def profile(self) -> GpuProfile:
        """The group's resolved :class:`GpuProfile`."""
        return resolve_gpu_profile(self.gpu_profile)

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON specs."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ServerGroup":
        """Inverse of :meth:`to_dict`."""
        return cls(**payload)


@dataclass(frozen=True)
class FleetSpec:
    """A declarative, JSON-round-trippable description of the fleet."""

    groups: Tuple[ServerGroup, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.groups:
            raise ValueError("FleetSpec needs at least one server group")

    @classmethod
    def homogeneous(
        cls,
        servers: int = 8,
        cpu: int = 16,
        host_mem_gb: float = 128.0,
        gpus: int = 2,
        gpu_profile: str = DEFAULT_GPU_PROFILE.name,
    ) -> "FleetSpec":
        """The shape ``Experiment(servers=N)`` has always meant."""
        return cls(groups=(ServerGroup(
            count=servers, cpu=cpu, host_mem_gb=host_mem_gb,
            gpus=gpus, gpu_profile=gpu_profile,
        ),))

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON specs and campaign axes."""
        return {"groups": [group.to_dict() for group in self.groups]}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FleetSpec":
        """Inverse of :meth:`to_dict`; validates the group list."""
        if not isinstance(payload, dict):
            raise ValueError("a fleet spec must be a JSON object")
        groups = payload.get("groups")
        if not isinstance(groups, (list, tuple)):
            raise ValueError("FleetSpec dict needs a 'groups' list")
        return cls(
            groups=tuple(ServerGroup.from_dict(dict(g)) for g in groups)
        )

    @classmethod
    def coerce(
        cls,
        value: Union[None, "FleetSpec", Dict[str, object], str],
    ) -> Optional["FleetSpec"]:
        """Accept a spec, its dict form, or a path to a JSON file."""
        if value is None or isinstance(value, FleetSpec):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        if isinstance(value, str):
            with open(value, encoding="utf-8") as handle:
                return cls.from_dict(json.load(handle))
        raise TypeError(
            "fleet must be a FleetSpec, a dict, or a path to a JSON file"
        )

    def build_servers(self) -> List[Server]:
        """Materialize the groups into concrete :class:`Server` objects."""
        servers: List[Server] = []
        server_id = 0
        for group in self.groups:
            profile = group.profile()
            profile_arg = None if is_default_profile(profile) else profile
            memory_mb = group.host_mem_gb * 1024
            if float(memory_mb).is_integer():
                memory_mb = int(memory_mb)
            for _ in range(group.count):
                servers.append(Server(
                    server_id=server_id,
                    cpu_capacity=group.cpu,
                    memory_capacity_mb=memory_mb,
                    num_gpus=group.gpus,
                    gpu_profile=profile_arg,
                ))
                server_id += 1
        return servers

    def build_cluster(self, beta: Optional[float] = None) -> Cluster:
        """Build the cluster, defaulting beta to the fleet's scarcity.

        For the homogeneous default shape this reproduces
        ``build_testbed_cluster()`` exactly (same servers, same
        ``BETA = 12.5``).
        """
        servers = self.build_servers()
        if beta is None:
            total_cpu = sum(s.cpu_capacity for s in servers)
            total_gpu = sum(s.gpu_capacity for s in servers)
            beta = total_gpu / total_cpu if total_gpu > 0 else 1.0
        return Cluster(servers, beta=beta)
