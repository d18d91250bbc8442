"""Unit tests for the server model (CPU, MPS-partitioned GPUs, memory)."""

import pytest

from repro.cluster.resources import ResourceVector
from repro.cluster.server import AllocationError, GpuDevice, Server


@pytest.fixture()
def server():
    return Server(server_id=0)


class TestGpuDevice:
    def test_starts_fully_free(self):
        assert GpuDevice(device_id=0).free == 100

    def test_allocate_reduces_free(self):
        gpu = GpuDevice(device_id=0)
        gpu.allocate(30)
        assert gpu.free == 70

    def test_over_allocate_raises(self):
        gpu = GpuDevice(device_id=0)
        gpu.allocate(80)
        with pytest.raises(AllocationError):
            gpu.allocate(30)

    def test_release_restores(self):
        gpu = GpuDevice(device_id=0)
        gpu.allocate(60)
        gpu.release(60)
        assert gpu.free == 100

    def test_release_overflow_raises(self):
        gpu = GpuDevice(device_id=0)
        with pytest.raises(AllocationError):
            gpu.release(10)


class TestServerCapacity:
    def test_testbed_shape(self, server):
        assert server.cpu_capacity == 16
        assert server.num_gpus == 2
        assert server.gpu_capacity == 200
        assert server.memory_capacity_mb == 128 * 1024

    def test_initially_inactive(self, server):
        assert not server.is_active()
        assert server.used.is_zero()

    def test_weighted_capacity(self, server):
        assert server.weighted_capacity(beta=1.0) == 216


class TestAllocation:
    def test_cpu_only_allocation(self, server):
        device = server.allocate(ResourceVector(cpu=4))
        assert device is None
        assert server.cpu_free == 12

    def test_gpu_allocation_returns_device(self, server):
        device = server.allocate(ResourceVector(gpu=30))
        assert device in (0, 1)
        assert server.gpu_free == 170

    def test_memory_tracked(self, server):
        server.allocate(ResourceVector(memory_mb=1024))
        assert server.memory_free_mb == 128 * 1024 - 1024

    def test_single_gpu_quota_constraint(self, server):
        # 60% + 60% fits in total (200) but each must come from one
        # device, so a third 60% allocation must fail.
        server.allocate(ResourceVector(gpu=60))
        server.allocate(ResourceVector(gpu=60))
        server.allocate(ResourceVector(gpu=40))
        server.allocate(ResourceVector(gpu=40))
        assert server.gpu_free == 0

    def test_cannot_fit_more_than_one_device(self, server):
        assert not server.can_fit(ResourceVector(gpu=101))

    def test_can_fit_respects_per_device_free(self, server):
        server.allocate(ResourceVector(gpu=70))
        server.allocate(ResourceVector(gpu=70))
        assert server.can_fit(ResourceVector(gpu=30))
        assert not server.can_fit(ResourceVector(gpu=31))

    def test_best_fit_device_choice(self, server):
        server.allocate(ResourceVector(gpu=60))  # device A: 40 free
        # A 35% request should land on the 40-free device, keeping the
        # untouched device available for large requests.
        server.allocate(ResourceVector(gpu=35))
        assert server.can_fit(ResourceVector(gpu=100))

    def test_cpu_exhaustion_raises(self, server):
        server.allocate(ResourceVector(cpu=16))
        with pytest.raises(AllocationError):
            server.allocate(ResourceVector(cpu=1))

    def test_memory_exhaustion_raises(self, server):
        with pytest.raises(AllocationError):
            server.allocate(ResourceVector(memory_mb=129 * 1024))

    def test_release_roundtrip(self, server):
        request = ResourceVector(cpu=2, gpu=20, memory_mb=512)
        device = server.allocate(request)
        server.release(request, device)
        assert server.free == server.capacity

    def test_release_gpu_without_device_raises(self, server):
        server.allocate(ResourceVector(gpu=20))
        with pytest.raises(AllocationError):
            server.release(ResourceVector(gpu=20), gpu_device_id=None)

    def test_release_overflow_detected(self, server):
        with pytest.raises(AllocationError):
            server.release(ResourceVector(cpu=1), None)


class TestFragmentRatio:
    def test_empty_server_fully_fragmented(self, server):
        assert server.fragment_ratio() == pytest.approx(1.0)

    def test_full_server_zero_fragments(self, server):
        for _ in range(2):
            server.allocate(ResourceVector(gpu=100))
        server.allocate(ResourceVector(cpu=16))
        assert server.fragment_ratio() == pytest.approx(0.0)
