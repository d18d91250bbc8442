"""Keep-alive / pre-warming policy interface and baselines.

A policy observes a function's invocations and emits a
:class:`ColdStartDecision` -- the (pre-warming window, keep-alive
window) pair of section 3.5:

* **pre-warming window**: time the policy waits after the last
  execution before loading the function image again in anticipation of
  the next invocation (0 = never unload during the keep-alive window);
* **keep-alive window**: how long the loaded image is then kept alive.

An idle gap ``IT`` therefore hits a *warm* image iff
``prewarm <= IT <= prewarm + keepalive``; the wasted loaded-idle time is
``IT - prewarm`` on a hit and ``keepalive`` on a tail miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Tuple

from repro.core.histogram import IdleTimeHistogram
from repro.telemetry import spans as ev
from repro.telemetry.tracer import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.server import Server
    from repro.core.instance import Instance


@dataclass(frozen=True)
class ColdStartDecision:
    """The (pre-warm, keep-alive) windows for one function, in seconds."""

    prewarm_s: float
    keepalive_s: float

    def __post_init__(self) -> None:
        if self.prewarm_s < 0 or self.keepalive_s < 0:
            raise ValueError("windows must be non-negative")

    def is_warm_at(self, idle_time_s: float) -> bool:
        """Would an idle gap of this length find the image loaded?"""
        return self.prewarm_s <= idle_time_s <= self.prewarm_s + self.keepalive_s

    def wasted_loaded_time(self, idle_time_s: float) -> float:
        """Reserved-but-idle resource seconds for a gap of this length.

        With ``prewarm == 0`` the instance stays *reserved*: it holds
        its CPU/GPU quota for the whole keep-alive window, so the waste
        is the covered part of the gap.  With ``prewarm > 0`` the
        instance unloads immediately and only its *image* is prefetched
        at the pre-warm time -- quota is re-acquired when the next
        invocation actually arrives (see
        :class:`repro.core.autoscaler.AutoScaler`), so the reserved
        waste of the gap is zero.  This is exactly the paper's "idle
        resource waste": pre-warming trades a small cold-start risk for
        freeing the quota during predictable gaps.
        """
        if self.prewarm_s > 0:
            return 0.0
        return min(idle_time_s, self.keepalive_s)


class KeepAlivePolicy(Protocol):
    """What the cold-start manager expects from a policy."""

    name: str

    def record_invocation(self, function_name: str, now: float) -> None:
        """Observe one invocation of a function."""

    def windows(self, function_name: str, now: float) -> ColdStartDecision:
        """Current (pre-warm, keep-alive) decision for a function."""


#: what :meth:`ColdStartPolicy.on_idle` may decide about an idle
#: instance.
IDLE_RESERVE = "reserve"  #: keep the quota allocated (LSTH prewarm=0)
IDLE_PREFETCH = "prefetch"  #: release quota, prefetch image later
IDLE_SWAP = "swap"  #: release quota, park weights in host RAM (Torpor)
IDLE_DROP = "drop"  #: unload immediately


def idle_mode(decision: ColdStartDecision) -> str:
    """The warm-pool mode the windows imply for a retiring instance:
    drop with no keep-alive, keep the quota reserved with no pre-warm
    wait, else release it and prefetch the image later."""
    if decision.keepalive_s <= 0:
        return IDLE_DROP
    return IDLE_RESERVE if decision.prewarm_s <= 0 else IDLE_PREFETCH


class ColdStartPolicy(KeepAlivePolicy, Protocol):
    """Full cold-start policy: windows plus the idle transition.

    Extends :class:`KeepAlivePolicy` with the hook the auto-scaler
    consults when an instance enters the warm pool.  A policy whose
    :meth:`on_idle` can return ``IDLE_SWAP`` must also define
    ``on_reuse(function_name, instance, server, now, swapped_mb)``,
    the extra startup delay in seconds of reusing the swapped-out
    instance; the auto-scaler asks it only for swap entries.  The
    Torpor-style :class:`~repro.core.swap.SwapKeepAlive` is that
    policy: "evict weights to host RAM, pay a PCIe swap-in on reuse".
    """

    def on_idle(
        self,
        function_name: str,
        instance: "Instance",
        server: Optional["Server"],
        now: float,
    ) -> str:
        """Warm-pool mode for an instance retiring now (IDLE_* value)."""


class _DefaultColdStartHooks:
    """The idle transition of windows-only policies.

    Derives :meth:`on_idle` from the policy's own windows through
    :func:`idle_mode`: drop with no keep-alive, reserve with no
    pre-warm, else prefetch.  Such a policy never swaps, so it needs
    no ``on_reuse``.
    """

    def on_idle(
        self,
        function_name: str,
        instance: "Instance",
        server: Optional["Server"],
        now: float,
    ) -> str:
        """Idle transition: drop, reserve or prefetch by the windows."""
        return idle_mode(self.windows(function_name, now))


#: registry names accepted by :func:`build_coldstart_policy` (and the
#: ``coldstart=`` knob of the Experiment facade / CLI / campaigns).
COLDSTART_POLICIES = ("lsth", "swap", "fixed")


def build_coldstart_policy(name: str, **kwargs) -> "ColdStartPolicy":
    """Build a cold-start policy by registry name.

    ``"lsth"`` is the paper's Long-Short Term Histogram, ``"swap"``
    the Torpor-style host-RAM weight swapping policy, ``"fixed"`` the
    constant keep-alive of commercial platforms.  Keyword arguments are
    forwarded to the policy constructor (e.g. ``gamma=`` for LSTH,
    ``keepalive_s=`` for swap/fixed).
    """
    if name == "lsth":
        from repro.core.lsth import LongShortTermHistogram

        return LongShortTermHistogram(**kwargs)
    if name == "swap":
        from repro.core.swap import SwapKeepAlive

        return SwapKeepAlive(**kwargs)
    if name == "fixed":
        return FixedKeepAlive(**kwargs)
    known = ", ".join(COLDSTART_POLICIES)
    raise ValueError(f"unknown cold-start policy {name!r} (known: {known})")


class FixedKeepAlive(_DefaultColdStartHooks):
    """The fixed keep-alive of commercial platforms and OpenFaaS+.

    Never pre-warms; keeps every idle image loaded for a constant
    window (OpenFaaS+ uses 300 s in the paper's comparison, Table 3).
    """

    def __init__(self, keepalive_s: float = 300.0) -> None:
        if keepalive_s < 0:
            raise ValueError("keepalive must be non-negative")
        self.keepalive_s = keepalive_s
        self.name = f"fixed-{int(keepalive_s)}s"
        self.tracer = NULL_TRACER  # fixed windows emit nothing; attachable

    def record_invocation(self, function_name: str, now: float) -> None:
        """Fixed policies ignore the invocation history."""

    def windows(self, function_name: str, now: float) -> ColdStartDecision:
        """The constant keep-alive window, no pre-warming."""
        return ColdStartDecision(prewarm_s=0.0, keepalive_s=self.keepalive_s)


class WindowedKeepAlive(_DefaultColdStartHooks):
    """Shared machinery for histogram-driven policies (HHP, LSTH).

    Feeds the idle gaps between a function's invocations into
    per-function histograms created by :meth:`_new_histograms`.  An
    invocation only appends its time to a per-function pending list;
    :meth:`_histograms_for` turns the list into ``(time, gap)``
    observations when it reads the histograms, or when the list holds
    ``max_observations`` times.  ``record_many`` trims as one
    ``record`` per gap would, so the histograms hold what per-invocation
    recording would have put there.
    """

    #: decision used until a function has enough history.
    DEFAULT_DECISION = ColdStartDecision(prewarm_s=0.0, keepalive_s=600.0)
    #: minimum observations before the histogram is considered
    #: representative.
    MIN_OBSERVATIONS = 10
    #: heads below this threshold are clamped to "never unload".
    MIN_PREWARM_S = 60.0
    #: pre-warming (unloading between invocations) is only safe when
    #: the idle-time distribution is predictable; a window whose
    #: coefficient of variation exceeds this contributes no head (the
    #: representativeness check of the original hybrid histogram
    #: policy).
    PREWARM_MAX_CV = 0.35

    #: how long a computed decision stays valid; real deployments
    #: refresh histogram-derived windows periodically, not per request.
    DECISION_REFRESH_S = 10.0

    def __init__(self, head_q: float = 5.0, tail_q: float = 99.0) -> None:
        self.head_q = head_q
        self.tail_q = tail_q
        #: function -> the invocation its next pending gap starts from.
        self._gap_start: Dict[str, float] = {}
        self._histograms: dict = {}
        #: function -> (flush threshold, invocation times whose gaps
        #: are not yet recorded).
        self._pending: Dict[str, Tuple[int, List[float]]] = {}
        self._decision_cache: dict = {}
        #: telemetry hooks; recomputed window decisions are traced.
        self.tracer = NULL_TRACER

    def _new_histograms(self):
        raise NotImplementedError

    def _histograms_for(self, function_name: str):
        """The function's histograms, with every pending gap recorded."""
        if function_name not in self._histograms:
            self._histograms[function_name] = self._new_histograms()
        histograms = self._histograms[function_name]
        _limit, times = self._pending.get(function_name, (0, None))
        if times:
            starts = [self._gap_start[function_name], *times]
            gaps = [
                (now, max(0.0, now - last)) for last, now in zip(starts, times)
            ]
            for histogram in histograms:
                histogram.record_many(gaps)
            self._gap_start[function_name] = times[-1]
            times.clear()
        return histograms

    def record_invocation(self, function_name: str, now: float) -> None:
        """Queue the invocation; its idle gap is recorded at the flush."""
        pending = self._pending.get(function_name)
        if pending is None:
            # The first invocation only starts the first gap.
            histograms = self._histograms_for(function_name)
            self._pending[function_name] = (
                min(h.max_observations for h in histograms), []
            )
            self._gap_start[function_name] = now
            return
        limit, times = pending
        times.append(now)
        if len(times) >= limit:
            self._histograms_for(function_name)  # flushes the gaps

    def windows(self, function_name: str, now: float) -> ColdStartDecision:
        """Current decision, refreshed at most every DECISION_REFRESH_S."""
        cached = self._decision_cache.get(function_name)
        if cached is not None:
            computed_at, decision = cached
            if 0.0 <= now - computed_at < self.DECISION_REFRESH_S:
                return decision
        decision = self._compute_windows(function_name, now)
        self._decision_cache[function_name] = (now, decision)
        if self.tracer.enabled:
            self.tracer.emit(
                ev.COLDSTART_DECISION, now, function=function_name,
                prewarm_s=decision.prewarm_s, keepalive_s=decision.keepalive_s,
            )
        return decision

    def _compute_windows(self, function_name: str, now: float) -> ColdStartDecision:
        raise NotImplementedError

    @staticmethod
    def _clamp_head(head: float, min_prewarm: float) -> float:
        """Heads shorter than the threshold mean 'never unload'."""
        return 0.0 if head < min_prewarm else head

    def _head_tail(
        self,
        histogram: IdleTimeHistogram,
        now: float,
        min_observations: Optional[int] = None,
    ) -> Optional[tuple]:
        required = (
            self.MIN_OBSERVATIONS if min_observations is None else min_observations
        )
        if histogram.count(now) < required:
            return None
        head, tail = histogram.head_tail(now, self.head_q, self.tail_q)
        cv = histogram.coefficient_of_variation(now)
        if cv is None or cv > self.PREWARM_MAX_CV:
            head = 0.0  # unpredictable idles: never unload early
        return head, tail
