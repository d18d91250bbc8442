"""Unit tests for cluster-level allocation and metrics."""

import pytest

from repro.cluster import Cluster, ResourceVector, Server, build_testbed_cluster
from repro.cluster.server import AllocationError


@pytest.fixture()
def small_cluster():
    return Cluster(servers=[Server(server_id=i) for i in range(3)])


class TestConstruction:
    def test_duplicate_server_ids_rejected(self):
        with pytest.raises(ValueError):
            Cluster(servers=[Server(server_id=0), Server(server_id=0)])

    def test_len(self, small_cluster):
        assert len(small_cluster) == 3

    def test_testbed_builder_matches_table2(self):
        cluster = build_testbed_cluster()
        assert len(cluster) == 8
        assert cluster.total_capacity.cpu == 8 * 16
        assert cluster.total_capacity.gpu == 8 * 200  # 16 GPUs

    def test_server_lookup(self, small_cluster):
        assert small_cluster.server(1).server_id == 1


class TestAllocation:
    def test_allocate_creates_placement(self, small_cluster):
        placement = small_cluster.allocate(0, ResourceVector(cpu=2, gpu=10))
        assert placement.server_id == 0
        assert placement in small_cluster.placements

    def test_release_returns_resources(self, small_cluster):
        placement = small_cluster.allocate(1, ResourceVector(cpu=4, gpu=50))
        small_cluster.release(placement)
        assert small_cluster.total_used.is_zero()

    def test_double_release_rejected(self, small_cluster):
        placement = small_cluster.allocate(1, ResourceVector(cpu=1))
        small_cluster.release(placement)
        with pytest.raises(AllocationError):
            small_cluster.release(placement)

    def test_reset_releases_everything(self, small_cluster):
        for server_id in range(3):
            small_cluster.allocate(server_id, ResourceVector(cpu=2))
        small_cluster.reset()
        assert small_cluster.total_used.is_zero()
        assert not small_cluster.placements


class TestMetrics:
    def test_active_servers_counts_used_only(self, small_cluster):
        small_cluster.allocate(0, ResourceVector(cpu=1))
        assert [s.server_id for s in small_cluster.active_servers()] == [0]

    def test_weighted_used(self, small_cluster):
        small_cluster.allocate(0, ResourceVector(cpu=2, gpu=30))
        expected = small_cluster.beta * 2 + 30
        assert small_cluster.weighted_used() == pytest.approx(expected)

    def test_weighted_active_capacity_counts_whole_server(self, small_cluster):
        small_cluster.allocate(0, ResourceVector(cpu=1))
        per_server = small_cluster.server(0).weighted_capacity(small_cluster.beta)
        assert small_cluster.weighted_active_capacity() == pytest.approx(per_server)

    def test_fragment_ratio_empty_cluster_is_zero(self, small_cluster):
        assert small_cluster.fragment_ratio() == 0.0

    def test_fragment_ratio_partial_fill(self, small_cluster):
        small_cluster.allocate(0, ResourceVector(gpu=100))
        ratio = small_cluster.fragment_ratio()
        assert 0.0 < ratio < 1.0

    def test_utilisation_bounds(self, small_cluster):
        assert small_cluster.utilisation() == 0.0
        small_cluster.allocate(0, ResourceVector(cpu=16))
        small_cluster.allocate(0, ResourceVector(gpu=100))
        assert 0.0 < small_cluster.utilisation() < 1.0
