"""A single server with CPU cores, MPS-partitioned GPUs and memory.

Mirrors the testbed machine of Table 2: dual-socket Xeon (16 physical
cores used for functions), 128 GB memory and two RTX 2080Ti GPUs whose
SMs are spatially shared between instances via CUDA MPS.  An instance's
GPU quota must come from a *single* device — MPS cannot split one
client's share across GPUs — so the server tracks free SM percentage
per device and picks a device at allocation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.cluster.resources import BETA, ResourceVector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.fleet import GpuProfile


class AllocationError(RuntimeError):
    """Raised when an allocation cannot be satisfied by a server."""


@dataclass
class GpuDevice:
    """One physical GPU partitioned by SM percentage.

    Besides the SM-share pool, the device tracks its *memory* in MB
    (11 GB on the testbed's RTX 2080Ti) with two charges against it:
    model weights reserved by a resident worker, and the KV cache of
    autoregressive sequences, accounted in **tokens** (the ledger the
    ``repro.llm`` preemption policies and the KV invariant audit read).
    Single-shot platforms never touch either pool, so the fields are
    inert for the paper's own workloads.
    """

    device_id: int
    capacity: int = 100
    free: int = 100
    #: device memory in MB (Table 2: RTX 2080Ti, 11 GB).
    memory_mb: float = 11_264.0
    #: MB reserved for loaded model weights.
    weights_reserved_mb: float = 0.0
    #: resident KV-cache tokens (the unit the audit reasons in).
    kv_reserved_tokens: int = 0
    #: MB occupied by those tokens (tokens x the owning model's
    #: per-token KV size; tracked alongside so mixed-model sharing
    #: stays auditable).
    kv_reserved_mb: float = 0.0

    def can_fit(self, gpu_percent: int) -> bool:
        return gpu_percent <= self.free

    def allocate(self, gpu_percent: int) -> None:
        if not self.can_fit(gpu_percent):
            raise AllocationError(
                f"GPU {self.device_id} has {self.free}% free, asked {gpu_percent}%"
            )
        self.free -= gpu_percent

    def release(self, gpu_percent: int) -> None:
        if self.free + gpu_percent > self.capacity:
            raise AllocationError(
                f"GPU {self.device_id} release of {gpu_percent}% overflows capacity"
            )
        self.free += gpu_percent

    # ------------------------------------------------------------------
    # device-memory ledger (weights + KV cache)
    # ------------------------------------------------------------------
    @property
    def memory_free_mb(self) -> float:
        """Device memory not held by weights or resident KV tokens."""
        return self.memory_mb - self.weights_reserved_mb - self.kv_reserved_mb

    def reserve_weights(self, mb: float) -> None:
        if mb < 0:
            raise AllocationError("negative weights reservation")
        if mb > self.memory_free_mb + 1e-9:
            raise AllocationError(
                f"GPU {self.device_id}: {self.memory_free_mb:.0f} MB free,"
                f" weights ask {mb:.0f} MB"
            )
        self.weights_reserved_mb += mb

    def release_weights(self, mb: float) -> None:
        if mb > self.weights_reserved_mb + 1e-9:
            raise AllocationError(
                f"GPU {self.device_id}: releasing {mb:.0f} MB of weights but"
                f" only {self.weights_reserved_mb:.0f} MB reserved"
            )
        self.weights_reserved_mb -= mb

    def kv_acquire(
        self, tokens: int, mb_per_token: float, sequences: int = 1
    ) -> None:
        """Charge ``tokens`` of KV cache to each of ``sequences``.

        Each sequence is booked as its own ``tokens * mb_per_token``
        charge, in order, so the MB ledger is bit-identical to
        ``sequences`` separate calls; the whole charge is refused,
        leaving the ledger untouched, when any of those calls would
        have been.  Free memory only falls along the way, so the last
        booking's capacity check is the binding one.
        """
        if tokens < 0 or sequences < 1:
            raise AllocationError("negative KV acquisition")
        mb = tokens * mb_per_token
        booked = self.kv_reserved_mb
        for _ in range(sequences - 1):
            booked += mb
        if mb > self.memory_mb - self.weights_reserved_mb - booked + 1e-9:
            raise AllocationError(
                f"GPU {self.device_id}: {self.memory_free_mb:.0f} MB free,"
                f" KV ask {sequences * mb:.0f} MB"
                f" ({sequences} x {tokens} tokens)"
            )
        self.kv_reserved_tokens += tokens * sequences
        self.kv_reserved_mb = booked + mb

    def kv_acquire_run(
        self, mb_per_token: float, sequences: int, iterations: int
    ) -> int:
        """Book up to ``iterations`` decode iterations of one token each
        for ``sequences`` sequences; return how many were booked.

        Each iteration is the ``kv_acquire(1, mb_per_token, sequences)``
        it replaces: the same per-sequence MB additions in the same
        order, so the ledger is bit-identical.  The run stops before
        the first iteration the free tokens, ``int(free_mb /
        mb_per_token)``, could not hold.  A failed capacity check
        raises with the ledger where those calls would have left it.
        """
        if sequences < 1:
            raise AllocationError("negative KV acquisition")
        avail = self.memory_mb - self.weights_reserved_mb
        booked = self.kv_reserved_mb
        others = range(sequences - 1)
        done = 0
        while done < iterations:
            # int(free_mb / mb_per_token) < sequences, as sequences >= 1
            # and free_mb <= 0 holds no token.
            if (avail - booked) / mb_per_token < sequences:
                break
            charged = booked
            for _ in others:
                charged += mb_per_token
            if mb_per_token > avail - charged + 1e-9:
                self.kv_reserved_tokens += done * sequences
                self.kv_reserved_mb = booked
                raise AllocationError(
                    f"GPU {self.device_id}: {self.memory_free_mb:.0f} MB"
                    f" free, KV ask {sequences * mb_per_token:.0f} MB"
                    f" ({sequences} x 1 tokens)"
                )
            booked = charged + mb_per_token
            done += 1
        self.kv_reserved_tokens += done * sequences
        self.kv_reserved_mb = booked
        return done

    def kv_release(self, tokens: int, mb_per_token: float) -> None:
        """Return ``tokens`` of KV cache; over-release is a hard error."""
        if tokens > self.kv_reserved_tokens:
            raise AllocationError(
                f"GPU {self.device_id}: releasing {tokens} KV tokens but only"
                f" {self.kv_reserved_tokens} resident (double release)"
            )
        self.kv_reserved_tokens -= tokens
        self.kv_reserved_mb -= tokens * mb_per_token
        if self.kv_reserved_tokens == 0:
            # Symmetric add/subtract leaves at most float residue; snap
            # so an empty ledger is exactly empty.
            self.kv_reserved_mb = 0.0


@dataclass
class Server:
    """A cluster node holding allocatable CPU, GPU and memory.

    ``allocate`` returns the GPU device chosen for the instance (or None
    for CPU-only instances) so the caller can release precisely later.
    """

    server_id: int
    cpu_capacity: int = 16
    memory_capacity_mb: int = 128 * 1024
    num_gpus: int = 2
    #: failed servers accept no placements and drop out of aggregates.
    healthy: bool = True
    #: GPU generation of this server's devices; ``None`` means the
    #: calibration baseline (2080Ti-class) so homogeneous fleets pay
    #: no lookup cost.
    gpu_profile: Optional["GpuProfile"] = None
    cpu_free: int = field(init=False)
    memory_free_mb: int = field(init=False)
    gpus: List[GpuDevice] = field(init=False)
    #: host memory holding swapped-out model weights (the Torpor-style
    #: cold-start policy); charged against ``memory_capacity_mb`` but
    #: kept out of ``memory_free_mb`` so the placement ledger still
    #: sums exactly.
    swap_reserved_mb: float = field(init=False)

    def __post_init__(self) -> None:
        self.cpu_free = self.cpu_capacity
        self.memory_free_mb = self.memory_capacity_mb
        self.swap_reserved_mb = 0.0
        if self.gpu_profile is None:
            self.gpus = [GpuDevice(device_id=i) for i in range(self.num_gpus)]
        else:
            self.gpus = [
                GpuDevice(
                    device_id=i,
                    capacity=self.gpu_profile.sm_units,
                    free=self.gpu_profile.sm_units,
                    memory_mb=self.gpu_profile.memory_gb * 1024.0,
                )
                for i in range(self.num_gpus)
            ]
        # Incrementally-maintained aggregates: the scheduler probes
        # can_fit()/gpu_free millions of times at cluster scale, so
        # they must be O(1).  Device capacities never change.
        self._gpu_capacity = sum(gpu.capacity for gpu in self.gpus)
        self._gpu_free_total = sum(gpu.free for gpu in self.gpus)
        #: Largest single-device free SM share (the MPS quota bound);
        #: the scheduler's probe loop reads it directly.
        self.gpu_free_max = max((gpu.free for gpu in self.gpus), default=0)

    def _refresh_gpu_totals(self) -> None:
        self._gpu_free_total = sum(gpu.free for gpu in self.gpus)
        self.gpu_free_max = max((gpu.free for gpu in self.gpus), default=0)

    # ------------------------------------------------------------------
    # capacity views
    # ------------------------------------------------------------------
    @property
    def gpu_capacity(self) -> int:
        """Total GPU percent units across all devices (``G_j`` in Eq. 6)."""
        return self._gpu_capacity

    @property
    def gpu_free(self) -> int:
        return self._gpu_free_total

    @property
    def capacity(self) -> ResourceVector:
        return ResourceVector(
            cpu=self.cpu_capacity,
            gpu=self.gpu_capacity,
            memory_mb=self.memory_capacity_mb,
        )

    @property
    def free(self) -> ResourceVector:
        return ResourceVector(
            cpu=self.cpu_free, gpu=self.gpu_free, memory_mb=self.memory_free_mb
        )

    @property
    def used(self) -> ResourceVector:
        return self.capacity - self.free

    def is_active(self) -> bool:
        """True when at least one instance occupies this server (``y_j = 1``)."""
        return self.healthy and (
            self.cpu_free < self.cpu_capacity
            or self._gpu_free_total < self._gpu_capacity
        )

    @property
    def host_memory_available_mb(self) -> float:
        """Host memory free for placements after swapped-out weights."""
        return self.memory_free_mb - self.swap_reserved_mb

    def reset_free(self) -> None:
        """Restore all capacity to the free pool (recovered machine)."""
        self.cpu_free = self.cpu_capacity
        self.memory_free_mb = self.memory_capacity_mb
        self.swap_reserved_mb = 0.0
        for gpu in self.gpus:
            gpu.free = gpu.capacity
            gpu.weights_reserved_mb = 0.0
            gpu.kv_reserved_tokens = 0
            gpu.kv_reserved_mb = 0.0
        self._refresh_gpu_totals()

    def weighted_capacity(self, beta: float = BETA) -> float:
        return beta * self.cpu_capacity + self.gpu_capacity

    def weighted_free(self, beta: float = BETA) -> float:
        return beta * self.cpu_free + self.gpu_free

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def can_fit(self, request: ResourceVector) -> bool:
        """Whether the request fits, respecting single-device GPU quotas."""
        if not self.healthy:
            return False
        if (
            request.cpu > self.cpu_free
            or request.memory_mb > self.memory_free_mb - self.swap_reserved_mb
        ):
            return False
        if request.gpu == 0:
            return True
        return request.gpu <= 100 and request.gpu <= self.gpu_free_max

    def _pick_gpu(self, gpu_percent: int) -> GpuDevice:
        # Best-fit: the feasible device with the least leftover, which
        # keeps large contiguous SM shares available on the other GPU.
        candidates = [gpu for gpu in self.gpus if gpu.can_fit(gpu_percent)]
        if not candidates:
            raise AllocationError(
                f"server {self.server_id}: no GPU with {gpu_percent}% free"
            )
        return min(candidates, key=lambda gpu: gpu.free - gpu_percent)

    def allocate(self, request: ResourceVector) -> Optional[int]:
        """Allocate the request; return the GPU device id used (or None).

        Raises AllocationError when the request does not fit.
        """
        if request.cpu > self.cpu_free:
            raise AllocationError(
                f"server {self.server_id}: {self.cpu_free} cores free,"
                f" asked {request.cpu}"
            )
        if request.memory_mb > self.memory_free_mb - self.swap_reserved_mb:
            raise AllocationError(
                f"server {self.server_id}: {self.host_memory_available_mb} MB"
                f" free, asked {request.memory_mb} MB"
            )
        device_id: Optional[int] = None
        if request.gpu > 0:
            device = self._pick_gpu(request.gpu)
            device.allocate(request.gpu)
            device_id = device.device_id
            self._refresh_gpu_totals()
        self.cpu_free -= request.cpu
        self.memory_free_mb -= request.memory_mb
        return device_id

    def release(self, request: ResourceVector, gpu_device_id: Optional[int]) -> None:
        """Return a previous allocation to the free pool."""
        if request.gpu > 0:
            if gpu_device_id is None:
                raise AllocationError("GPU allocation released without a device id")
            self.gpus[gpu_device_id].release(request.gpu)
            self._refresh_gpu_totals()
        self.cpu_free += request.cpu
        self.memory_free_mb += request.memory_mb
        if self.cpu_free > self.cpu_capacity or self.memory_free_mb > self.memory_capacity_mb:
            raise AllocationError(f"server {self.server_id}: release overflow")

    def resize_gpu(self, device_id: int, delta: int) -> None:
        """Grow (``delta > 0``) or shrink an SM share held on one device."""
        device = self.gpus[device_id]
        if delta > 0:
            device.allocate(delta)
        else:
            device.release(-delta)
        self._refresh_gpu_totals()

    # ------------------------------------------------------------------
    # host-memory swap ledger (Torpor-style weight eviction)
    # ------------------------------------------------------------------
    def swap_reserve(self, mb: float) -> bool:
        """Park ``mb`` of evicted model weights in host RAM.

        Returns False (instead of raising) when host memory is full:
        the cold-start policy then falls back to a plain unload.
        """
        if mb < 0:
            raise AllocationError("negative swap reservation")
        if mb > self.memory_free_mb - self.swap_reserved_mb + 1e-9:
            return False
        self.swap_reserved_mb += mb
        return True

    def swap_release(self, mb: float) -> None:
        """Drop a host-RAM weight reservation; over-release is a bug."""
        if mb > self.swap_reserved_mb + 1e-9:
            raise AllocationError(
                f"server {self.server_id}: releasing {mb:.0f} MB of swapped"
                f" weights but only {self.swap_reserved_mb:.0f} MB reserved"
            )
        self.swap_reserved_mb -= mb
        if self.swap_reserved_mb < 1e-9:
            self.swap_reserved_mb = 0.0

    # ------------------------------------------------------------------
    # fragmentation
    # ------------------------------------------------------------------
    def fragment_ratio(self, beta: float = BETA) -> float:
        """Unallocated fraction of this server's weighted resources.

        The paper's Fig. 17(b) measures "the amount of unallocated
        resources in each active server divided by all the server's
        resources"; inactive servers do not count as fragments.
        """
        return self.weighted_free(beta) / self.weighted_capacity(beta)
