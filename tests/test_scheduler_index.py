"""Equivalence properties of the incremental placement and usage state.

The scheduler keeps one best-fit index per GPU generation and the
cluster keeps O(1) usage totals; both must agree exactly with the
from-scratch scans they replace, on random mixed fleets and random
allocation histories.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import Cluster, ResourceVector
from repro.cluster.fleet import A100, RTX_2080TI, T4
from repro.cluster.server import Server
from repro.core import GreedyScheduler

#: server generations drawn for a fleet: None is a profile-less server,
#: RTX_2080TI the baseline named explicitly.
GENERATIONS = (None, RTX_2080TI, T4, A100)

server_shapes = st.tuples(
    st.sampled_from(GENERATIONS),
    st.integers(4, 16),  # cores
    st.integers(0, 2),  # GPUs
)
#: (server pick, cpu, gpu, memory in GiB) -- picks are taken modulo.
requests = st.tuples(
    st.integers(0, 10**6),
    st.integers(0, 6),
    st.sampled_from([0, 0, 10, 20, 30, 50, 80, 100]),
    st.integers(0, 24),
)


def build_fleet(shapes):
    return Cluster([
        Server(
            server_id=index,
            cpu_capacity=cpu,
            memory_capacity_mb=32 * 1024,
            num_gpus=gpus,
            gpu_profile=profile,
        )
        for index, (profile, cpu, gpus) in enumerate(shapes)
    ])


def as_request(cpu, gpu, memory_gib):
    return ResourceVector(cpu=cpu, gpu=gpu, memory_mb=memory_gib * 1024)


def allocate_if_fits(cluster, pick, request):
    server = cluster.servers[pick % len(cluster.servers)]
    if server.can_fit(request):
        return cluster.allocate(server.server_id, request)
    return None


def reference_best_server(cluster, resources, beta, generation, allowed):
    """A scan of the full ascending index, filtered by generation."""
    profiles = {
        s.server_id: s.gpu_profile.name
        for s in cluster.servers
        if s.num_gpus > 0 and s.gpu_profile not in (None, RTX_2080TI)
    }
    want = None if generation is None else generation.name
    cost = resources.weighted(beta)
    for key, server_id in sorted(
        (s.weighted_free(beta), s.server_id) for s in cluster.servers
    ):
        if key < cost - 1e-9:
            continue
        if not cluster.server(server_id).can_fit(resources):
            continue
        if resources.gpu and profiles and profiles.get(server_id) != want:
            continue
        if allowed is not None and server_id not in allowed:
            continue
        return server_id
    return None


class TestPerGenerationIndex:
    @given(
        shapes=st.lists(server_shapes, min_size=1, max_size=12),
        history=st.lists(requests, max_size=25),
        failed=st.lists(st.integers(0, 10**6), max_size=2),
        rows=st.lists(
            st.tuples(requests, st.integers(0, 3), st.booleans()),
            min_size=1, max_size=12,
        ),
        dynamic_beta=st.booleans(),
    )
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_matches_filtered_full_scan(
        self, predictor, shapes, history, failed, rows, dynamic_beta
    ):
        cluster = build_fleet(shapes)
        for pick, cpu, gpu, memory in history:
            allocate_if_fits(cluster, pick, as_request(cpu, gpu, memory))
        for pick in failed:
            cluster.fail_server(pick % len(cluster.servers))
        scheduler = GreedyScheduler(
            cluster, predictor, dynamic_beta=dynamic_beta
        )
        generations = scheduler._profile_order
        for (pick, cpu, gpu, memory), choice, restrict in rows:
            scheduler._sorted_free()
            beta = scheduler._efficiency_beta()
            resources = as_request(cpu, gpu, memory)
            generation = generations[choice % len(generations)]
            allowed = (
                {s.server_id for s in cluster.servers[pick % 3::3]}
                if restrict else None
            )
            chosen = scheduler._best_server_for(
                resources, beta, generation, allowed
            )
            assert chosen == reference_best_server(
                cluster, resources, beta, generation, allowed
            )
            if chosen is not None:
                # Keep the history going through the re-key path.
                cluster.allocate(chosen, resources)
                scheduler._update_sorted_free(chosen)


def reference_usage(cluster):
    """The per-server ResourceVector sums the O(1) totals replace."""
    beta = cluster.beta
    used = ResourceVector()
    ratios = []
    for server in cluster.servers:
        capacity = ResourceVector(
            cpu=server.cpu_capacity,
            gpu=sum(gpu.capacity for gpu in server.gpus),
            memory_mb=server.memory_capacity_mb,
        )
        free = ResourceVector(
            cpu=server.cpu_free,
            gpu=sum(gpu.free for gpu in server.gpus),
            memory_mb=server.memory_free_mb,
        )
        server_used = capacity - free
        if server.healthy:
            used = used + server_used
            if server_used.cpu > 0 or server_used.gpu > 0:
                ratios.append(free.weighted(beta) / capacity.weighted(beta))
    fragment = sum(ratios) / len(ratios) if ratios else 0.0
    return used, used.weighted(beta), fragment


class TestUsageTotals:
    @given(
        shapes=st.lists(server_shapes, min_size=1, max_size=8),
        operations=st.lists(
            st.tuples(
                st.sampled_from(
                    ["allocate", "allocate", "release", "resize", "fail",
                     "recover"]
                ),
                requests,
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_totals_equal_from_scratch_sums(self, shapes, operations):
        cluster = build_fleet(shapes)
        servers = cluster.servers
        for kind, (pick, cpu, gpu, memory) in operations:
            placements = cluster.placements
            if kind == "allocate":
                allocate_if_fits(cluster, pick, as_request(cpu, gpu, memory))
            elif kind == "release" and placements:
                cluster.release(placements[pick % len(placements)])
            elif kind == "resize":
                on_gpu = [p for p in placements if p.gpu_device_id is not None]
                if on_gpu:
                    placement = on_gpu[pick % len(on_gpu)]
                    device = cluster.server(placement.server_id).gpus[
                        placement.gpu_device_id
                    ]
                    old = placement.resources
                    new_gpu = 1 + pick % min(100, old.gpu + device.free)
                    cluster.resize_placement(placement, ResourceVector(
                        cpu=old.cpu, gpu=new_gpu, memory_mb=old.memory_mb,
                    ))
            elif kind == "fail":
                cluster.fail_server(servers[pick % len(servers)].server_id)
            elif kind == "recover":
                cluster.recover_server(servers[pick % len(servers)].server_id)
            used, weighted, fragment = reference_usage(cluster)
            assert cluster.total_used == used
            assert cluster.weighted_used().hex() == float(weighted).hex()
            assert cluster.fragment_ratio().hex() == float(fragment).hex()
