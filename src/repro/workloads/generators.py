"""Synthetic production-trace generators (Fig. 10 stand-ins).

Three arrival patterns from the Azure Functions characterisation that
the paper replays, each with the statistical features its consumers
depend on:

* **periodic** -- a diurnal sinusoid with mild noise: the long-term
  periodicity (LTP) that makes the 24-hour LSTH histogram informative;
* **bursty** -- the diurnal base plus short multiplicative bursts and
  sudden dips: the short-term bursts (STB) that defeat a single-window
  histogram;
* **sporadic** -- long idle gaps with isolated spikes: the cold-start
  stress pattern.

All generators are deterministic given a seed.  Every ``seed``
parameter accepts a plain int (the legacy streams, kept bit-identical)
or a ``numpy.random.SeedSequence`` whose spawned children supply
decorrelated internal streams -- see :mod:`repro.workloads.seeding`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.workloads.seeding import SeedLike, derive_streams
from repro.workloads.trace import Trace

DAY_S = 24 * 3600.0


def _check_duration(duration_s: float) -> None:
    if not duration_s > 0:
        raise ValueError("duration_s must be positive")


def constant_trace(rps: float, duration_s: float, step_s: float = 1.0) -> Trace:
    """A flat trace (the paper's stress-testing load)."""
    if rps < 0:
        raise ValueError("rps must be non-negative")
    _check_duration(duration_s)
    cells = max(1, int(round(duration_s / step_s)))
    return Trace(name="constant", step_s=step_s, rps=np.full(cells, float(rps)))


def periodic_trace(
    mean_rps: float,
    duration_s: float = DAY_S,
    step_s: float = 1.0,
    period_s: float = DAY_S,
    relative_amplitude: float = 0.6,
    noise: float = 0.05,
    seed: SeedLike = 1,
) -> Trace:
    """Diurnal sinusoid: the LTP-only pattern."""
    _check_duration(duration_s)
    rng = np.random.default_rng(derive_streams(seed, (0,))[0])
    t = np.arange(0.0, duration_s, step_s)
    base = 1.0 + relative_amplitude * np.sin(2.0 * np.pi * t / period_s)
    jitter = rng.normal(1.0, noise, size=t.size)
    rps = np.clip(mean_rps * base * jitter, 0.0, None)
    return Trace(name="periodic", step_s=step_s, rps=rps)


def bursty_trace(
    mean_rps: float,
    duration_s: float = DAY_S,
    step_s: float = 1.0,
    period_s: float = DAY_S,
    burst_rate_per_hour: float = 4.0,
    burst_magnitude: float = 4.0,
    burst_duration_s: float = 120.0,
    dip_fraction: float = 0.3,
    seed: SeedLike = 2,
) -> Trace:
    """Diurnal base plus short bursts and dips: LTP + STB.

    Bursts multiply the rate by up to ``burst_magnitude`` for about
    ``burst_duration_s``; a ``dip_fraction`` of the events are sudden
    decreases instead (the paper notes both kinds of sudden change).
    """
    _check_duration(duration_s)
    base_stream, burst_stream = derive_streams(seed, (0, 1000))
    base = periodic_trace(
        mean_rps, duration_s, step_s, period_s, relative_amplitude=0.4,
        noise=0.05, seed=base_stream,
    )
    rng = np.random.default_rng(burst_stream)
    rps = base.rps.copy()
    cells = rps.size
    expected_events = burst_rate_per_hour * duration_s / 3600.0
    num_events = rng.poisson(expected_events)
    for _ in range(num_events):
        start = rng.integers(0, cells)
        length = max(1, int(rng.exponential(burst_duration_s) / step_s))
        end = min(cells, start + length)
        if rng.random() < dip_fraction:
            factor = rng.uniform(0.05, 0.4)
        else:
            factor = rng.uniform(2.0, burst_magnitude)
        rps[start:end] *= factor
    # Renormalise so the configured mean is preserved despite events.
    rps *= mean_rps / max(rps.mean(), 1e-12)
    return Trace(name="bursty", step_s=step_s, rps=rps)


def sporadic_trace(
    mean_rps: float,
    duration_s: float = DAY_S,
    step_s: float = 1.0,
    active_fraction: float = 0.12,
    spike_duration_s: float = 180.0,
    seed: SeedLike = 3,
) -> Trace:
    """Long idle gaps with isolated activity spikes (cold-start heavy).

    The function is quiet most of the time; activity arrives in spikes
    whose spacing is exponential, sized so that roughly
    ``active_fraction`` of the timeline carries load while the overall
    mean stays at ``mean_rps``.
    """
    if not 0.0 < active_fraction <= 1.0:
        raise ValueError("active_fraction must lie in (0, 1]")
    _check_duration(duration_s)
    rng = np.random.default_rng(derive_streams(seed, (0,))[0])
    cells = max(1, int(round(duration_s / step_s)))
    rps = np.zeros(cells)
    spike_cells = max(1, int(spike_duration_s / step_s))
    mean_gap_s = spike_duration_s * (1.0 - active_fraction) / active_fraction
    cursor = int(rng.exponential(mean_gap_s) / step_s)
    spike_level = mean_rps / active_fraction
    while cursor < cells:
        length = max(1, int(rng.exponential(spike_cells)))
        end = min(cells, cursor + length)
        rps[cursor:end] = spike_level * rng.uniform(0.5, 1.5)
        cursor = end + max(1, int(rng.exponential(mean_gap_s) / step_s))
    if rps.mean() > 0:
        rps *= mean_rps / rps.mean()
    return Trace(name="sporadic", step_s=step_s, rps=rps)


def timer_invocations(
    period_s: float,
    duration_s: float = DAY_S,
    jitter_frac: float = 0.05,
    spike_every_s: Optional[float] = None,
    spike_rate: float = 0.08,
    spike_len_s: float = 300.0,
    seed: SeedLike = 4,
) -> "np.ndarray":
    """Timer-triggered invocation times with optional burst pollution.

    The Azure characterisation found a large share of functions are
    timer-driven: invocations arrive every ``period_s`` with small
    jitter, so their idle-time distribution is tight and pre-warming is
    highly effective.  Optional Poisson spikes (rate ``spike_rate``
    for ``spike_len_s``, spaced ``spike_every_s`` apart on average)
    model the short-term bursts that pollute a single-window histogram
    head (section 3.5).

    Returns sorted invocation times, not a rate trace -- feed directly
    to :func:`repro.simulation.coldstart_eval.evaluate_policy`.
    """
    if period_s <= 0:
        raise ValueError("period must be positive")
    rng = np.random.default_rng(derive_streams(seed, (0,))[0])
    times = []
    t = rng.uniform(0, period_s)
    while t < duration_s:
        times.append(t)
        t += period_s * (1.0 + rng.uniform(-jitter_frac, jitter_frac))
    if spike_every_s:
        cursor = rng.exponential(spike_every_s)
        while cursor < duration_s:
            length = rng.exponential(spike_len_s)
            count = rng.poisson(spike_rate * length)
            times.extend(cursor + rng.random(count) * length)
            cursor += length + rng.exponential(spike_every_s)
    return np.sort(np.array(times))
