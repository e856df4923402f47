"""SFQ pulse detection from junction phase traces.

A junction emits one pulse per 2 pi phase slip; the event is stamped
where the phase first reaches (2k+1) pi, linearly interpolated between
the two bracketing samples. One step may carry a junction to at most
one target: a sample that reaches two is a ValueError, which a
transient reports as a CircuitError naming the junction and the time
(a step short enough to resolve the switching moves a bundled cell's
phase by at most 0.13 rad). Every transient stamps its junctions'
pulses this way as it steps, and detect_pulses_in reads them from its
TraceSet; detect_pulses runs the same search over a whole phase array.
The time integral of the junction voltage across each detected pulse
is one flux quantum, which flux_integrals exposes for verification.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..core import SpikeTrain

if TYPE_CHECKING:
    from .transient import TraceSet


def detect_pulses(time_ps: np.ndarray, phase: np.ndarray, node: str = "") -> SpikeTrain:
    """Events at each crossing of phi = (2k+1) pi, k = 0, 1, ..."""
    phase = np.asarray(phase, dtype=float)
    if not np.isfinite(phase).all():
        raise ValueError("phase must be finite")
    events: list[float] = []
    stamp_crossings(np.asarray(time_ps, dtype=float), phase, math.pi, events)
    return SpikeTrain(node, tuple(events))


def stamp_crossings(time_ps: np.ndarray, phase: np.ndarray, target: float, events: list) -> float:
    """Append to events each crossing of target, target + 2 pi, ... by
    phase[1:], interpolated from the sample before it; return the next target.

    The first sample to reach a target is the first at which the running
    maximum of phase[1:] reaches it, so each crossing costs one binary
    search. A sample that also reaches the next target is a ValueError.
    """
    peak = np.maximum.accumulate(phase[1:])
    while (i := int(peak.searchsorted(target)) + 1) < len(phase):
        t0, t1, p0, p1 = time_ps[i - 1], time_ps[i], phase[i - 1], phase[i]
        if p1 == p0:
            events.append(t1)
        else:
            frac = min(max((target - p0) / (p1 - p0), 0.0), 1.0)
            events.append(t0 + frac * (t1 - t0))
        target += 2.0 * math.pi
        if p1 >= target:
            raise ValueError(f"phase slips more than once on the step to t = {t1:.4f} ps")
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
