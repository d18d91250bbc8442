"""One autoregressive request as the engine tracks it.

A sequence moves through ``WAITING -> RUNNING -> DONE`` with two
detours under KV-memory pressure: ``SWAPPED`` (cache parked in host
memory, resumes where it stopped) and a sacrifice restart (cache
discarded, back to ``WAITING`` with ``generated`` reset).
"""

from __future__ import annotations

import enum


class SequenceState(enum.Enum):
    """Where a sequence currently lives."""

    WAITING = "waiting"
    RUNNING = "running"
    SWAPPED = "swapped"
    DONE = "done"
    DROPPED = "dropped"


class Sequence:
    """One in-flight autoregressive request.

    ``kv_tokens`` is the sequence's *resident* KV-cache footprint on
    its worker's GPU -- prompt plus generated-so-far while RUNNING,
    zero while WAITING/SWAPPED/DONE (a swapped sequence's cache lives
    in host memory, which the simulation does not meter).
    """

    __slots__ = (
        "request_id",
        "function",
        "arrival",
        "slo_ttft_s",
        "tpot_slo_s",
        "prompt_tokens",
        "output_tokens",
        "generated",
        "kv_tokens",
        "state",
        "prefill_start",
        "first_token_ts",
        "admitted_seq",
        "preemptions",
        "restarts",
        "worker_id",
    )

    def __init__(
        self,
        request_id: int,
        function: str,
        arrival: float,
        slo_ttft_s: float,
        tpot_slo_s: float,
        prompt_tokens: int,
        output_tokens: int,
    ) -> None:
        self.request_id = request_id
        self.function = function
        self.arrival = arrival
        self.slo_ttft_s = slo_ttft_s
        self.tpot_slo_s = tpot_slo_s
        self.prompt_tokens = prompt_tokens
        self.output_tokens = output_tokens
        self.generated = 0
        self.kv_tokens = 0
        self.state = SequenceState.WAITING
        #: start of the (latest) prefill pass; the exec phase of the
        #: latency decomposition runs from here to completion.
        self.prefill_start = -1.0
        self.first_token_ts = -1.0
        #: admission order on the worker; preemption victimises LIFO.
        self.admitted_seq = -1
        self.preemptions = 0
        self.restarts = 0
        self.worker_id = -1

    # ------------------------------------------------------------------
    @property
    def remaining_tokens(self) -> int:
        """Output tokens still to generate before completion."""
        return self.output_tokens - self.generated

    @property
    def total_kv_need(self) -> int:
        """Worst-case resident footprint if run to completion."""
        return self.prompt_tokens + self.output_tokens
