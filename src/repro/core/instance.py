"""Function instances with non-uniform configurations.

Unlike uniform-scaling platforms, instances of the same INFless
function may carry different ``<b, c, g>`` configurations; each one
knows its predicted batch execution time, its admissible rate range
(Eq. 1) and its placement in the cluster.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterator, Optional

from repro.cluster.cluster import Placement
from repro.core.batching import BatchQueue, RateBounds
from repro.core.function import FunctionSpec
from repro.profiling.configspace import InstanceConfig

_instance_ids: Iterator[int] = itertools.count()


class InstanceState(enum.Enum):
    """Lifecycle of an instance (cold-start management, section 3.5)."""

    #: container being created / model loading (cold start in progress).
    COLD_STARTING = "cold_starting"
    #: serving (or ready to serve) requests.
    ACTIVE = "active"
    #: retired from dispatch but kept loaded during the keep-alive window.
    WARM_IDLE = "warm_idle"
    #: image unloaded; resources released.
    TERMINATED = "terminated"


class Instance:
    """A running (or warming) instance of an inference function.

    A ``__slots__`` class: the serving hot path touches instances per
    request (routing, batching, completion), and large-scale sweeps
    create thousands of them.

    Attributes:
        function: the function this instance serves.
        config: its non-uniform ``<b, c, g>`` configuration.
        t_exec_pred: predicted batch execution time (COP output) used
            for rate bounds and queue timeouts.
        bounds: the Eq. 1 admissible rate range.
        placement: where the instance's resources are allocated.
        assigned_rate: RPS currently dispatched to this instance
            (section 3.2's ``r_i``).
        ready_at: when the instance finishes cold-starting.
        idle_since: start of the current idle stretch, if idle.
        queue: the instance's batch queue (built when omitted).
        busy: True while a batch is executing (set by the runtime).
        timeout_slack_s: extra latency budget reserved outside the
            instance (the OTP buffer layer of BATCH); shortens the
            batch waiting deadline.
    """

    __slots__ = (
        "function",
        "config",
        "t_exec_pred",
        "bounds",
        "placement",
        "assigned_rate",
        "state",
        "instance_id",
        "ready_at",
        "idle_since",
        "queue",
        "busy",
        "timeout_slack_s",
    )

    def __init__(
        self,
        function: FunctionSpec,
        config: InstanceConfig,
        t_exec_pred: float,
        bounds: RateBounds,
        placement: Optional[Placement] = None,
        assigned_rate: float = 0.0,
        state: InstanceState = InstanceState.COLD_STARTING,
        instance_id: Optional[int] = None,
        ready_at: float = 0.0,
        idle_since: Optional[float] = None,
        queue: Optional[BatchQueue] = None,
        busy: bool = False,
        timeout_slack_s: float = 0.0,
    ) -> None:
        self.function = function
        self.config = config
        self.t_exec_pred = t_exec_pred
        self.bounds = bounds
        self.placement = placement
        self.assigned_rate = assigned_rate
        self.state = state
        self.instance_id = (
            next(_instance_ids) if instance_id is None else instance_id
        )
        self.ready_at = ready_at
        self.idle_since = idle_since
        self.busy = busy
        self.timeout_slack_s = timeout_slack_s
        if t_exec_pred <= 0:
            raise ValueError("predicted execution time must be positive")
        if queue is None:
            queue = BatchQueue(
                batch_size=config.batch,
                timeout_s=self.batch_timeout_s,
            )
        self.queue = queue

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def batch_timeout_s(self) -> float:
        """Max waiting time of a batch's first request: ``t_slo - t_exec``.

        Flushing at this deadline guarantees even a partial batch
        finishes within the SLO (when the prediction holds).
        """
        return max(
            0.0, self.function.slo_s - self.t_exec_pred - self.timeout_slack_s
        )

    @property
    def r_up(self) -> float:
        return self.bounds.r_up

    @property
    def r_low(self) -> float:
        return self.bounds.r_low

    def is_dispatchable(self) -> bool:
        return self.state in (InstanceState.ACTIVE, InstanceState.COLD_STARTING)
