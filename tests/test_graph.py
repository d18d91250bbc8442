"""Unit tests for operator DAGs and the chain/branch timing rules."""

import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ops.graph import GraphStructureError, OperatorGraph, longest_path
from repro.ops.operator import OperatorSpec


def op(gflops=1.0, kind="MatMul", calls=1):
    return OperatorSpec(kind, gflops_per_item=gflops, calls=calls)


def unit_time(spec):
    """Each node costs its gflops value; makes path sums easy to check."""
    return spec.gflops_per_item


@pytest.fixture()
def diamond():
    """a -> (b | c) -> d, with branch c slower."""
    graph = OperatorGraph.chain("diamond", [("a", op(1.0))])
    graph.add_parallel_branches([[("b", op(2.0))], [("c", op(5.0))]])
    graph.append_chain([("d", op(1.0))])
    return graph


class TestConstruction:
    def test_duplicate_node_rejected(self):
        graph = OperatorGraph.chain("g", [("a", op())])
        with pytest.raises(GraphStructureError):
            graph.add_node("a", op())

    def test_edge_to_unknown_node_rejected(self):
        graph = OperatorGraph.chain("g", [("a", op())])
        with pytest.raises(GraphStructureError):
            graph.add_edge("a", "ghost")

    def test_self_loop_rejected(self):
        graph = OperatorGraph.chain("g", [("a", op())])
        with pytest.raises(GraphStructureError):
            graph.add_edge("a", "a")

    def test_duplicate_edge_ignored(self):
        graph = OperatorGraph.chain("g", [("a", op()), ("b", op())])
        graph.add_edge("a", "b")
        assert len(graph.edges()) == 1

    def test_chain_shape(self):
        graph = OperatorGraph.chain("g", [("a", op()), ("b", op()), ("c", op())])
        assert graph.sources() == ["a"]
        assert graph.sinks() == ["c"]
        assert len(graph) == 3

    def test_diamond_shape(self, diamond):
        assert diamond.sources() == ["a"]
        assert diamond.sinks() == ["d"]
        assert set(diamond.successors("a")) == {"b", "c"}
        assert set(diamond.predecessors("d")) == {"b", "c"}

    def test_validate_empty_graph(self):
        with pytest.raises(GraphStructureError):
            OperatorGraph(name="empty").validate()

    def test_cycle_detected(self):
        graph = OperatorGraph.chain("g", [("a", op()), ("b", op())])
        graph._succ["b"].append("a")  # force a cycle
        graph._pred["a"].append("b")
        with pytest.raises(GraphStructureError):
            graph.topological_order()

    def test_topological_order_respects_edges(self, diamond):
        order = diamond.topological_order()
        assert order.index("a") < order.index("b")
        assert order.index("c") < order.index("d")


class TestTiming:
    def test_chain_time_is_sum(self):
        graph = OperatorGraph.chain(
            "g", [("a", op(1.0)), ("b", op(2.0)), ("c", op(3.0))]
        )
        assert graph.critical_path_time(unit_time) == pytest.approx(6.0)

    def test_branches_take_max(self, diamond):
        # 1 + max(2, 5) + 1
        assert diamond.critical_path_time(unit_time) == pytest.approx(7.0)

    def test_total_time_is_sum_of_all(self, diamond):
        assert diamond.total_time(unit_time) == pytest.approx(9.0)

    def test_chain_critical_equals_total(self):
        graph = OperatorGraph.chain("g", [("a", op(2.0)), ("b", op(3.0))])
        assert graph.critical_path_time(unit_time) == pytest.approx(
            graph.total_time(unit_time)
        )

    @given(
        weights=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_critical_path_never_exceeds_total(self, weights):
        graph = OperatorGraph.chain("head", [("h", op(1.0))])
        graph.add_parallel_branches([[(f"n{i}", op(w))] for i, w in enumerate(weights)])
        critical = graph.critical_path_time(unit_time)
        total = graph.total_time(unit_time)
        assert critical <= total + 1e-9
        assert critical == pytest.approx(1.0 + max(weights))


#: node times with ties and zeros drawn often
TIMES = st.sampled_from([0.0, 0.1, 1.0, 2.5]) | st.floats(0.0, 10.0)


@st.composite
def random_dags(draw):
    """A DAG over ``n0..`` (edges only forward) with per-node time rows.

    Each node's row holds ``columns`` times; column 0 is its scalar
    weight in the graph (``gflops_per_item``).
    """
    n = draw(st.integers(1, 7))
    columns = draw(st.integers(1, 4))
    rows = [draw(st.lists(TIMES, min_size=columns, max_size=columns)) for _ in range(n)]
    graph = OperatorGraph(name="random")
    for i, row in enumerate(rows):
        graph.add_node(f"n{i}", op(row[0], kind=f"k{i}"))
    for j in range(1, n):
        for i in draw(st.sets(st.integers(0, j - 1))):
            graph.add_edge(f"n{i}", f"n{j}")
    return graph, {f"n{i}": row for i, row in enumerate(rows)}


def _paths(graph):
    """Every source-to-sink path, as node-id lists."""
    def extend(path):
        successors = graph.successors(path[-1])
        if not successors:
            yield path
        for succ in successors:
            yield from extend(path + [succ])

    for source in graph.sources():
        yield from extend([source])


def _path_time(graph, path):
    """A path's ``unit_time``, summed from its source as the fold adds."""
    times = (unit_time(graph.node(nid).spec) for nid in path)
    return functools.reduce(operator.add, times, 0.0)


class TestLongestPathFold:
    @given(dag=random_dags())
    @settings(max_examples=200, deadline=None)
    def test_fold_equals_brute_force(self, dag):
        graph, _rows = dag
        best = max(_path_time(graph, path) for path in _paths(graph))
        assert float(graph.critical_path_time(unit_time)) == best

    @given(dag=random_dags())
    @settings(max_examples=200, deadline=None)
    def test_array_fold_equals_per_column_scalar_folds(self, dag):
        graph, rows = dag
        order = graph.topological_order()
        before = {nid: graph.predecessors(nid) for nid in order}
        arrays = longest_path(order, before, lambda nid: np.array(rows[nid]))
        for column in range(len(rows["n0"])):
            scalars = longest_path(order, before, lambda nid: rows[nid][column])
            for nid in order:
                assert float(arrays[nid][column]) == float(scalars[nid])


class TestSummaries:
    def test_calls_by_operator_folds_calls(self):
        graph = OperatorGraph.chain(
            "g",
            [("a", op(1.0, "MatMul", calls=3)), ("b", op(1.0, "MatMul", calls=2)),
             ("c", op(1.0, "Relu"))],
        )
        assert graph.calls_by_operator() == {"MatMul": 5, "Relu": 1}
        assert graph.total_calls() == 6

    def test_time_by_operator_sums(self):
        graph = OperatorGraph.chain(
            "g", [("a", op(2.0, "MatMul")), ("b", op(3.0, "MatMul"))]
        )
        assert graph.time_by_operator(unit_time) == {"MatMul": pytest.approx(5.0)}

    def test_distinct_operators(self, diamond):
        assert diamond.distinct_operators() == {"MatMul"}

    def test_total_gflops(self, diamond):
        assert diamond.total_gflops_per_item() == pytest.approx(9.0)
