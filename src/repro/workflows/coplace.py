"""Co-placement hint: keep adjacent DAG stages on the same GPU server.

ESG's second lever after SLO decomposition: when two adjacent workflow
stages share a server (MPS lets them share a GPU), the inter-stage hop
stays host-local instead of crossing the cluster network.  The hint is
advisory only -- :class:`~repro.core.scheduler.GreedyScheduler`
consults it inside ``_select_placement``, its one Eq. 10 selector on
homogeneous and mixed-generation fleets alike, accepts a preferred
server only when its Eq. 10 efficiency score stays within
:attr:`CoPlacementHint.tolerance` of the unconstrained best, and never
relaxes feasibility (Eq. 1 bounds, server capacity and the row's GPU
generation are checked exactly as before).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set, Tuple

from repro.workflows.spec import WorkflowSpec


class CoPlacementHint:
    """Tracks stage placements and prefers servers hosting neighbours.

    The scheduler calls :meth:`preferred_servers` while scoring
    candidate servers, and :meth:`record`/:meth:`forget` as instances
    are placed and released, so preferences always reflect the live
    placement map.  ``hits``/``decisions`` count how often the
    preference actually changed the placement -- the report's
    co-placement hit rate.
    """

    #: a preferred server must score at least this fraction of the
    #: unconstrained best Eq. 10 score to win the placement.
    tolerance = 0.9

    def __init__(self, workflow: WorkflowSpec) -> None:
        self.workflow = workflow
        self._adjacency: Dict[str, Tuple[str, ...]] = workflow.adjacency()
        self._placed: Dict[str, Counter] = {
            name: Counter() for name in self._adjacency
        }
        self.hits = 0
        self.decisions = 0

    def tracks(self, function_name: str) -> bool:
        """True when ``function_name`` is a stage of this workflow."""
        return function_name in self._adjacency

    def record(self, function_name: str, server_id: int) -> None:
        """Note an instance of ``function_name`` placed on ``server_id``."""
        counts = self._placed.get(function_name)
        if counts is not None:
            counts[server_id] += 1

    def forget(self, function_name: str, server_id: int) -> None:
        """Remove one placed instance (on release/scale-down)."""
        counts = self._placed.get(function_name)
        if counts is None:
            return
        counts[server_id] -= 1
        if counts[server_id] <= 0:
            del counts[server_id]

    def preferred_servers(self, function_name: str) -> Set[int]:
        """Servers hosting any stage adjacent to ``function_name``."""
        neighbours = self._adjacency.get(function_name)
        if not neighbours:
            return set()
        preferred: Set[int] = set()
        for neighbour in neighbours:
            preferred.update(self._placed[neighbour])
        return preferred

    def observe(self, preferred_won: bool) -> None:
        """Count one placement decision where a preference existed."""
        self.decisions += 1
        if preferred_won:
            self.hits += 1

    def hit_rate(self) -> Optional[float]:
        """Fraction of preference-bearing decisions co-placed, or None."""
        if self.decisions == 0:
            return None
        return self.hits / self.decisions

    def stats(self) -> Dict[str, object]:
        """Report block: decisions, hits, hit rate, live placement map."""
        live: Dict[str, List[int]] = {
            name: sorted(counts)
            for name, counts in self._placed.items()
            if counts
        }
        return {
            "decisions": self.decisions,
            "hits": self.hits,
            "hit_rate": self.hit_rate(),
            "stage_servers": live,
        }
