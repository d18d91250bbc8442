"""The cluster: a set of servers plus placement bookkeeping.

The scheduler (Algorithm 1) asks the cluster two questions: "where does
this resource request fit?" and "how efficient is placing it on server
j?" (Eq. 10).  The cluster also produces the aggregate statistics used
throughout the evaluation: active servers, weighted resource usage and
the fragment ratio of Fig. 17(b).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.cluster.resources import BETA, ResourceVector
from repro.cluster.server import AllocationError, Server


@dataclass(frozen=True)
class Placement:
    """A record of one instance's allocation on a server."""

    placement_id: int
    server_id: int
    resources: ResourceVector
    gpu_device_id: Optional[int]


@dataclass
class Cluster:
    """A collection of servers with allocation / release / metrics APIs."""

    servers: List[Server]
    beta: float = BETA
    #: bumped on every allocate/release so callers (the scheduler) can
    #: cache derived indexes and invalidate them cheaply.
    version: int = 0
    _placements: Dict[int, Placement] = field(default_factory=dict)
    _next_placement_id: Iterable[int] = field(default_factory=itertools.count)

    def __post_init__(self) -> None:
        ids = [server.server_id for server in self.servers]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate server ids in cluster")
        self._by_id = {server.server_id: server for server in self.servers}
        # Incrementally-maintained free-pool aggregates.  At cluster
        # scale the scheduler re-prices its CPU<->GPU conversion factor
        # and rebuilds its free-capacity index after *every* placement;
        # summing per-server free pools there is O(servers) per
        # placement, i.e. quadratic over a provisioning sweep.  All
        # resource mutations flow through allocate/release/
        # resize_placement/fail_server/recover_server below, which keep
        # these exact.  Like the per-server iteration they replace, the
        # free aggregates span every server regardless of health (a
        # failed machine keeps its free counters; can_fit() is what
        # rejects it).
        self._index_of = {
            server.server_id: index
            for index, server in enumerate(self.servers)
        }
        self._ids_arr = np.array(ids, dtype=np.int64)
        self._cpu_free_arr = np.array(
            [server.cpu_free for server in self.servers], dtype=np.float64
        )
        self._gpu_free_arr = np.array(
            [server.gpu_free for server in self.servers], dtype=np.float64
        )
        self._free_cpu_total = int(sum(s.cpu_free for s in self.servers))
        self._free_gpu_total = int(sum(s.gpu_free for s in self.servers))
        # The used totals span *healthy* servers only, like the
        # per-server sums behind ``total_used`` they replace; the usage
        # sampler reads them every control tick.
        healthy = [s for s in self.servers if s.healthy]
        self._used_cpu = sum(s.cpu_capacity - s.cpu_free for s in healthy)
        self._used_gpu = sum(s.gpu_capacity - s.gpu_free for s in healthy)
        self._used_memory_mb = sum(
            s.memory_capacity_mb - s.memory_free_mb for s in healthy
        )

    def _count_used(
        self, server: Server, cpu: int, gpu: int, memory_mb: int
    ) -> None:
        """Move the used totals by a change on ``server``, if healthy."""
        if server.healthy:
            self._used_cpu += cpu
            self._used_gpu += gpu
            self._used_memory_mb += memory_mb

    def _sync_server_free(self, server: Server) -> None:
        index = self._index_of[server.server_id]
        self._cpu_free_arr[index] = server.cpu_free
        self._gpu_free_arr[index] = server.gpu_free

    @property
    def free_cpu_total(self) -> int:
        """Total free CPU cores across all servers (healthy or not)."""
        return self._free_cpu_total

    @property
    def free_gpu_total(self) -> int:
        """Total free GPU percent units across all servers."""
        return self._free_gpu_total

    def sorted_weighted_free(self, beta: float) -> List[Tuple[float, int]]:
        """Ascending ``(weighted free, server_id)`` pairs at ``beta``.

        Vectorised equivalent of sorting ``(server.weighted_free(beta),
        server.server_id)`` per server: the weighted key is the same
        two IEEE-754 operations (``beta * cpu_free + gpu_free``) numpy
        performs element-wise, and the stable lexsort reproduces the
        tuple ordering exactly, so callers see bit-identical indexes.
        """
        weighted = beta * self._cpu_free_arr + self._gpu_free_arr
        order = np.lexsort((self._ids_arr, weighted))
        return list(
            zip(weighted[order].tolist(), self._ids_arr[order].tolist())
        )

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def server(self, server_id: int) -> Server:
        return self._by_id[server_id]

    def __len__(self) -> int:
        return len(self.servers)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate(self, server_id: int, request: ResourceVector) -> Placement:
        """Allocate ``request`` on a named server, returning a Placement."""
        server = self.server(server_id)
        device_id = server.allocate(request)
        placement = Placement(
            placement_id=next(self._next_placement_id),
            server_id=server_id,
            resources=request,
            gpu_device_id=device_id,
        )
        self._placements[placement.placement_id] = placement
        self._free_cpu_total -= request.cpu
        self._free_gpu_total -= request.gpu
        self._count_used(server, request.cpu, request.gpu, request.memory_mb)
        self._sync_server_free(server)
        self.version += 1
        return placement

    def release(self, placement: Placement) -> None:
        if placement.placement_id not in self._placements:
            raise AllocationError(f"unknown placement {placement.placement_id}")
        server = self.server(placement.server_id)
        server.release(placement.resources, placement.gpu_device_id)
        del self._placements[placement.placement_id]
        freed = placement.resources
        self._free_cpu_total += freed.cpu
        self._free_gpu_total += freed.gpu
        self._count_used(server, -freed.cpu, -freed.gpu, -freed.memory_mb)
        self._sync_server_free(server)
        self.version += 1

    def resize_placement(
        self, placement: Placement, new_resources: ResourceVector
    ) -> Placement:
        """Resize a live placement's GPU quota in place (HAS-GPU style).

        Vertical scaling grows (or shrinks) the SM share on the *same*
        device the instance already occupies -- MPS quotas cannot move
        across GPUs without a reload, and CPU/memory stay untouched, so
        only the ``gpu`` dimension may change.  Returns the replacement
        :class:`Placement` record (same ``placement_id``).
        """
        if placement.placement_id not in self._placements:
            raise AllocationError(f"unknown placement {placement.placement_id}")
        old = placement.resources
        if (
            new_resources.cpu != old.cpu
            or new_resources.memory_mb != old.memory_mb
        ):
            raise AllocationError(
                "resize_placement only changes the GPU share"
            )
        delta = new_resources.gpu - old.gpu
        if delta == 0:
            return placement
        if placement.gpu_device_id is None:
            raise AllocationError("cannot resize a CPU-only placement")
        server = self.server(placement.server_id)
        server.resize_gpu(placement.gpu_device_id, delta)
        resized = Placement(
            placement_id=placement.placement_id,
            server_id=placement.server_id,
            resources=new_resources,
            gpu_device_id=placement.gpu_device_id,
        )
        self._placements[placement.placement_id] = resized
        self._free_gpu_total -= delta
        self._count_used(server, 0, delta, 0)
        self._sync_server_free(server)
        self.version += 1
        return resized

    @property
    def placements(self) -> List[Placement]:
        return list(self._placements.values())

    # ------------------------------------------------------------------
    # aggregate metrics
    # ------------------------------------------------------------------
    @property
    def total_capacity(self) -> ResourceVector:
        total = ResourceVector()
        for server in self.servers:
            if server.healthy:
                total = total + server.capacity
        return total

    @property
    def total_used(self) -> ResourceVector:
        """Resources allocated on healthy servers; O(1)."""
        return ResourceVector(
            cpu=self._used_cpu,
            gpu=self._used_gpu,
            memory_mb=self._used_memory_mb,
        )

    def active_servers(self) -> List[Server]:
        return [server for server in self.servers if server.is_active()]

    def weighted_used(self) -> float:
        """beta * used_cpu + used_gpu across healthy servers; O(1)."""
        return self.beta * self._used_cpu + self._used_gpu

    def weighted_active_capacity(self) -> float:
        """Eq. 2's objective value: resources of every *used* server."""
        return sum(server.weighted_capacity(self.beta) for server in self.active_servers())

    def fragment_ratio(self) -> float:
        """Average unallocated fraction across active servers (Fig. 17b).

        One pass that builds nothing, summing left to right from 0 as
        ``sum()`` does.
        """
        total = 0
        active = 0
        for server in self.servers:
            if server.is_active():
                total += server.fragment_ratio(self.beta)
                active += 1
        if not active:
            return 0.0
        return total / active

    def utilisation(self) -> float:
        """Weighted used resources over weighted total capacity."""
        capacity = self.total_capacity.weighted(self.beta)
        if capacity == 0:
            return 0.0
        return self.weighted_used() / capacity

    def reset(self) -> None:
        """Release every placement (used between benchmark repetitions)."""
        for placement in list(self._placements.values()):
            self.release(placement)

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def fail_server(self, server_id: int) -> List[Placement]:
        """Take a server down; its placements are lost, not released.

        Returns the placements that were on the failed machine so the
        control plane can terminate the corresponding instances and
        re-provision elsewhere.
        """
        server = self.server(server_id)
        if not server.healthy:
            return []
        # The machine leaves the used totals with everything on it.
        self._count_used(
            server,
            server.cpu_free - server.cpu_capacity,
            server.gpu_free - server.gpu_capacity,
            server.memory_free_mb - server.memory_capacity_mb,
        )
        server.healthy = False
        lost = [
            placement
            for placement in self._placements.values()
            if placement.server_id == server_id
        ]
        for placement in lost:
            del self._placements[placement.placement_id]
        self.version += 1
        return lost

    def recover_server(self, server_id: int) -> None:
        """Bring a failed server back, empty (a replacement machine)."""
        server = self.server(server_id)
        if server.healthy:
            return
        self._free_cpu_total += server.cpu_capacity - server.cpu_free
        self._free_gpu_total += server.gpu_capacity - server.gpu_free
        # Back empty, so the used totals gain nothing.
        server.reset_free()
        server.healthy = True
        self._sync_server_free(server)
        self.version += 1

