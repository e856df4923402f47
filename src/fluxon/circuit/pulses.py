"""SFQ pulse detection from junction phase traces.

A junction emits one pulse per 2 pi phase slip; the event is stamped
where the phase crosses (2k+1) pi, linearly interpolated between the
two bracketing samples. The time integral of the junction voltage
across each detected pulse is one flux quantum, which flux_integrals
exposes for verification.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import SpikeTrain
from .transient import TraceSet


def detect_pulses(time_ps: np.ndarray, phase: np.ndarray, node: str = "") -> SpikeTrain:
    """Events at each crossing of phi = (2k+1) pi, k = 0, 1, ..."""
    time_ps = np.asarray(time_ps, dtype=float)
    phase = np.asarray(phase, dtype=float)
    events: list[float] = []
    target = math.pi
    for i in range(1, len(phase)):
        while phase[i] >= target:
            p0, p1 = phase[i - 1], phase[i]
            if p1 == p0:
                t_cross = time_ps[i]
            else:
                frac = (target - p0) / (p1 - p0)
                frac = min(max(frac, 0.0), 1.0)
                t_cross = time_ps[i - 1] + frac * (time_ps[i] - time_ps[i - 1])
            events.append(t_cross)
            target += 2.0 * math.pi
    return SpikeTrain(node, tuple(events))


def detect_pulses_in(traces: TraceSet, junction: str) -> SpikeTrain:
    junction = junction.lower()
    return detect_pulses(traces.time_ps, traces.junction_phase[junction], node=junction)


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
