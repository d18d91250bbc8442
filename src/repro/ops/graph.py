"""Operator DAGs with the paper's chain / branch decomposition.

Section 3.3 estimates a model's latency from its task graph
``G = (O, E)``: a *sequence chain* contributes the sum of its operator
times and *parallel branches* contribute the max across branches.  For
series-parallel DAGs these two rules compose into exactly the longest
(weighted) path.  :func:`longest_path` is the one fold that computes
it, over scalars or elementwise over arrays: the executor's
:meth:`OperatorGraph.critical_path_time`, the predictor's priced grid
and a workflow's critical path all call it.
:meth:`OperatorGraph.total_time` is the all-operators sum that the
ground-truth executor blends in (imperfect branch overlap is the
structural error source COP exhibits on branchy models, Fig. 8).
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, List, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.ops.operator import OperatorSpec

TimeFn = Callable[[OperatorSpec], Any]


def longest_path(
    order: Iterable[Hashable],
    before: Mapping[Hashable, Sequence[Hashable]],
    node_time: Callable[[Hashable], Any],
) -> Dict[Hashable, Any]:
    """Each node's finish time: its own time after the latest of ``before``.

    ``order`` visits each node after all of ``before[node]``; a node
    with none starts at 0.  Chains sum and branches take the max, so
    the largest finish is the longest path.  ``node_time`` may return
    floats or equal-shape arrays, folded elementwise in the same order.
    """
    finish: Dict[Hashable, Any] = {}
    for node in order:
        starts = [finish[prior] for prior in before[node]]
        start = functools.reduce(np.maximum, starts) if starts else 0.0
        finish[node] = start + node_time(node)
    return finish


class GraphStructureError(ValueError):
    """Raised for malformed operator graphs (cycles, unknown nodes...)."""


@dataclass(frozen=True)
class OperatorNode:
    """A named node of the operator DAG."""

    node_id: str
    spec: OperatorSpec


@dataclass
class OperatorGraph:
    """A DAG of operator nodes.

    Construct with :meth:`add_node` / :meth:`add_edge`, or use
    :meth:`chain` / :meth:`parallel` to build the two basic structures
    the paper decomposes graphs into.
    """

    name: str = "graph"
    _nodes: Dict[str, OperatorNode] = field(default_factory=dict)
    _succ: Dict[str, List[str]] = field(default_factory=dict)
    _pred: Dict[str, List[str]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: str, spec: OperatorSpec) -> None:
        if node_id in self._nodes:
            raise GraphStructureError(f"duplicate node id {node_id!r}")
        self._nodes[node_id] = OperatorNode(node_id=node_id, spec=spec)
        self._succ[node_id] = []
        self._pred[node_id] = []

    def add_edge(self, src: str, dst: str) -> None:
        for node_id in (src, dst):
            if node_id not in self._nodes:
                raise GraphStructureError(f"unknown node {node_id!r}")
        if src == dst:
            raise GraphStructureError(f"self-loop on {src!r}")
        if dst in self._succ[src]:
            return
        self._succ[src].append(dst)
        self._pred[dst].append(src)

    @classmethod
    def chain(cls, name: str, specs: Sequence[Tuple[str, OperatorSpec]]) -> "OperatorGraph":
        """Build a pure sequence chain from (node_id, spec) pairs."""
        graph = cls(name=name)
        previous = None
        for node_id, spec in specs:
            graph.add_node(node_id, spec)
            if previous is not None:
                graph.add_edge(previous, node_id)
            previous = node_id
        return graph

    def append_chain(self, specs: Sequence[Tuple[str, OperatorSpec]]) -> None:
        """Append a chain after every current sink of the graph."""
        sinks = self.sinks()
        previous = None
        for node_id, spec in specs:
            self.add_node(node_id, spec)
            if previous is None:
                for sink in sinks:
                    self.add_edge(sink, node_id)
            else:
                self.add_edge(previous, node_id)
            previous = node_id

    def add_parallel_branches(
        self, branches: Sequence[Sequence[Tuple[str, OperatorSpec]]]
    ) -> None:
        """Fan out into several chains after the current sinks.

        The branches remain open (new sinks); call :meth:`append_chain`
        afterwards to join them.
        """
        sinks = self.sinks()
        for branch in branches:
            previous = None
            for node_id, spec in branch:
                self.add_node(node_id, spec)
                if previous is None:
                    for sink in sinks:
                        self.add_edge(sink, node_id)
                else:
                    self.add_edge(previous, node_id)
                previous = node_id

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[OperatorNode]:
        return list(self._nodes.values())

    def node(self, node_id: str) -> OperatorNode:
        return self._nodes[node_id]

    def __len__(self) -> int:
        return len(self._nodes)

    def edges(self) -> List[Tuple[str, str]]:
        return [(src, dst) for src, dsts in self._succ.items() for dst in dsts]

    def sources(self) -> List[str]:
        return [nid for nid in self._nodes if not self._pred[nid]]

    def sinks(self) -> List[str]:
        return [nid for nid in self._nodes if not self._succ[nid]]

    def successors(self, node_id: str) -> List[str]:
        return list(self._succ[node_id])

    def predecessors(self, node_id: str) -> List[str]:
        return list(self._pred[node_id])

    def topological_order(self) -> List[str]:
        """Kahn's algorithm; raises GraphStructureError on cycles."""
        in_degree = {nid: len(preds) for nid, preds in self._pred.items()}
        ready = deque(sorted(nid for nid, deg in in_degree.items() if deg == 0))
        order: List[str] = []
        while ready:
            nid = ready.popleft()
            order.append(nid)
            for succ in self._succ[nid]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._nodes):
            raise GraphStructureError(f"graph {self.name!r} contains a cycle")
        return order

    def validate(self) -> None:
        """Raise GraphStructureError if the graph is not a non-empty DAG."""
        if not self._nodes:
            raise GraphStructureError(f"graph {self.name!r} is empty")
        self.topological_order()

    # ------------------------------------------------------------------
    # timing combination (section 3.3)
    # ------------------------------------------------------------------
    def _finish_times(self, time_fn: TimeFn) -> Dict[str, Any]:
        """Each node's longest-path finish time (:func:`longest_path`)."""
        return longest_path(
            self.topological_order(),
            self._pred,
            lambda node_id: time_fn(self._nodes[node_id].spec),
        )

    def critical_path_time(self, time_fn: TimeFn) -> Any:
        """Longest-path time, the latest sink's finish (times are never
        negative); elementwise for array times, and floats may come
        back as a numpy float."""
        finish = self._finish_times(time_fn)
        return functools.reduce(np.maximum, [finish[sink] for sink in self.sinks()])

    def total_time(self, time_fn: TimeFn) -> float:
        """Sum of all operator times (no overlap at all)."""
        return sum(time_fn(node.spec) for node in self._nodes.values())

    # ------------------------------------------------------------------
    # workload summaries
    # ------------------------------------------------------------------
    def total_gflops_per_item(self) -> float:
        return sum(node.spec.total_gflops_per_item for node in self._nodes.values())

    def total_calls(self) -> int:
        """Total operator *calls* (a node folds spec.calls invocations)."""
        return sum(node.spec.calls for node in self._nodes.values())

    def distinct_operators(self) -> Set[str]:
        return {node.spec.kind_name for node in self._nodes.values()}

    def calls_by_operator(self) -> Dict[str, int]:
        """Operator name -> number of calls (Fig. 7 bar heights)."""
        counts: Dict[str, int] = {}
        for node in self._nodes.values():
            counts[node.spec.kind_name] = (
                counts.get(node.spec.kind_name, 0) + node.spec.calls
            )
        return counts

    def time_by_operator(self, time_fn: TimeFn) -> Dict[str, float]:
        """Operator name -> summed execution time (Fig. 7 dominance)."""
        times: Dict[str, float] = {}
        for node in self._nodes.values():
            times[node.spec.kind_name] = (
                times.get(node.spec.kind_name, 0.0) + time_fn(node.spec)
            )
        return times
