"""SFQ pulse detection from junction phase traces.

A junction emits one pulse per 2 pi phase slip; the event is stamped
where the phase crosses (2k+1) pi, linearly interpolated between the
two bracketing samples. Every transient stamps its junctions' pulses
this way as it steps, and detect_pulses_in reads them from its
TraceSet; detect_pulses runs the same search over a whole phase array.
The time integral of the junction voltage across each detected pulse
is one flux quantum, which flux_integrals exposes for verification.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..core import SpikeTrain

SEARCH_WINDOW = 512  # samples compared with the target in one array operation

if TYPE_CHECKING:
    from .transient import TraceSet


def detect_pulses(time_ps: np.ndarray, phase: np.ndarray, node: str = "") -> SpikeTrain:
    """Events at each crossing of phi = (2k+1) pi, k = 0, 1, ..."""
    events: list[float] = []
    stamp_crossings(np.asarray(time_ps, dtype=float), np.asarray(phase, dtype=float), math.pi, events)
    return SpikeTrain(node, tuple(events))


def stamp_crossings(time_ps: np.ndarray, phase: np.ndarray, target: float, events: list) -> float:
    """Append to events each crossing of target, target + 2 pi, ... by
    phase[1:], interpolated from the sample before it; return the next target.

    The samples are compared with the target SEARCH_WINDOW at a time, so
    a search costs a few array operations per window and per crossing
    rather than a Python step per sample.
    """
    i = 1
    while i < len(phase):
        hit = phase[i:i + SEARCH_WINDOW] >= target
        k = int(hit.argmax())  # the first hit, or 0 when there is none
        if hit[k]:
            i += k
            target = crossings(time_ps[i - 1], time_ps[i], phase[i - 1], phase[i], target, events)
            i += 1
        else:
            i += len(hit)
    return target


def crossings(t0: float, t1: float, p0: float, p1: float, target: float, events: list) -> float:
    """Append to events where a phase going from p0 at t0 to p1 at t1
    crosses target, target + 2 pi, ...; return the next target."""
    while p1 >= target:
        if p1 == p0:
            events.append(t1)
        else:
            frac = min(max((target - p0) / (p1 - p0), 0.0), 1.0)
            events.append(t0 + frac * (t1 - t0))
        target += 2.0 * math.pi
    return target


def detect_pulses_in(traces: TraceSet, junction: str) -> SpikeTrain:
    """The pulses of one junction, as the run stamped them while it stepped."""
    junction = junction.lower()
    return SpikeTrain(junction, traces.pulses[junction])


def flux_through(
    time_ps: np.ndarray,
    voltage: np.ndarray,
    t0: float,
    t1: float,
) -> float:
    """integral of V dt (Wb) over [t0, t1] ps.

    With both endpoints on quiet (static) stretches of the waveform,
    the result counts exactly one flux quantum per 2 pi slip inside
    the interval; use this for isolated pulses on junctions whose
    operating point drifts with stored loop current.
    """
    t = np.asarray(time_ps, dtype=float)
    v = np.asarray(voltage, dtype=float)
    mask = (t >= t0) & (t <= t1)
    return float(np.trapezoid(v[mask], t[mask] * 1e-12))


def flux_integrals(
    time_ps: np.ndarray,
    phase: np.ndarray,
    voltage: np.ndarray,
    window_ps: float = 10.0,
) -> np.ndarray:
    """integral of V dt (in Wb) over each detected pulse.

    Each pulse is integrated over +-window_ps around its timestamp,
    clipped to the midpoints towards neighboring pulses so windows
    never overlap. The window keeps slow background transients (bias
    ramps, settling drift) out of the pulse integral.
    """
    train = detect_pulses(time_ps, phase)
    t = np.asarray(time_ps, dtype=float)
    v = np.asarray(voltage, dtype=float)
    out = []
    times = train.times
    for k, tc in enumerate(times):
        left = 0.0 if k == 0 else 0.5 * (times[k - 1] + tc)
        right = t[-1] if k == len(times) - 1 else 0.5 * (tc + times[k + 1])
        out.append(flux_through(t, v, max(left, tc - window_ps), min(right, tc + window_ps)))
    return np.asarray(out)
