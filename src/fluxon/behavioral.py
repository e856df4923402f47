"""Event-level models of the SFQ neuron cells: the one statement of what
the cell family realizes.

The soma is a leaky integrate-and-fire unit: each incoming pulse adds
one unit to a state that decays exponentially with time constant `tau`,
and the cell fires (and resets to zero) when the state reaches a
calibrated threshold level `v_th`. The calibration is chosen so that a
soma with pulse-count threshold N fires on N unit pulses arriving at
the maximum tolerated spacing `t_max` and never fires when the spacing
is larger. A soma cell exists for each threshold that `DEFAULT_T_MAX`
gives a window, and `soma_for_threshold` is where that window is
filled in. Synapse cells contribute signed integer weights within
their kind's row of `SYNAPSE_KINDS`, and the buffer/quantizer (BQ)
stage converts a neuron's total synaptic weight into a train of
equally spaced pulses, clamping inhibitory totals at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import SpikeTrain

# Maximum inter-pulse spacing (ps) that must still fire an N-threshold
# soma at exactly N pulses, for each N a soma cell exists for (1..6).
# N=2 tolerates 65 ps; N=3 requires 20 ps; the remaining thresholds
# conservatively reuse the tighter window.
DEFAULT_T_MAX = {1: 20.0, 2: 65.0, 3: 20.0, 4: 20.0, 5: 20.0, 6: 20.0}

DEFAULT_TAU_PS = 25.0


def calibrate_threshold(n: int, t_max: float, tau: float) -> float:
    """Threshold level for an N-pulse soma with decay `tau`.

    Returns sum_{k=0..n-1} exp(-k*t_max/tau), evaluated with the same
    Horner recurrence the soma state update uses, so that n unit pulses
    spaced exactly t_max apart reach the level bit-exactly, while any
    wider spacing falls strictly short.
    """
    if n < 1:
        raise ValueError(f"pulse-count threshold must be >= 1, got {n}")
    if t_max <= 0.0 or tau <= 0.0:
        raise ValueError("t_max and tau must be positive")
    decay = math.exp(-t_max / tau)
    v_th = 1.0
    for _ in range(n - 1):
        v_th = v_th * decay + 1.0
    return v_th


@dataclass(frozen=True)
class SomaParams:
    """Behavioral leaky integrate-and-fire parameters; `v_th` is
    calibrated from (n_threshold, t_max, tau)."""

    n_threshold: int
    t_max: float
    tau: float = DEFAULT_TAU_PS
    v_th: float = field(init=False)

    def __post_init__(self):
        if self.n_threshold not in DEFAULT_T_MAX:
            raise ValueError(f"no soma cell has threshold {self.n_threshold}; "
                             f"the cells cover {min(DEFAULT_T_MAX)}..{max(DEFAULT_T_MAX)}")
        object.__setattr__(self, "v_th", calibrate_threshold(self.n_threshold, self.t_max, self.tau))


def soma_for_threshold(n: int, *, tau: float = DEFAULT_TAU_PS, t_max: float | None = None) -> SomaParams:
    """The soma cell for pulse-count n, with its default window unless t_max is given.

    A threshold no cell has gets no window here and fails SomaParams' check.
    """
    return SomaParams(n, DEFAULT_T_MAX.get(n) if t_max is None else t_max, tau)


def soma_fire_times(params: SomaParams, train: SpikeTrain) -> SpikeTrain:
    """The soma's fire times on a train of unit pulses.

    At each pulse the stored level decays by exp(-dt/tau) and gains one
    unit; the soma fires, and resets to zero, when the level reaches
    v_th. A SpikeTrain's times are sorted, so dt is never negative.
    """
    level = last = 0.0
    fires: list[float] = []
    for t in train.times:
        level = level * math.exp(-(t - last) / params.tau) + 1.0
        last = t
        if level >= params.v_th:
            level = 0.0
            fires.append(t)
    return SpikeTrain(train.node, tuple(fires))


# --- synapse / quantizer ------------------------------------------------

# Per synapse kind: (lowest weight, highest weight, highest input level).
# SM2/SM4 are stacks of SM1 unit cells; a weight of magnitude m closes
# m switches on the excitatory or inhibitory branch.
SYNAPSE_KINDS = {"SM1": (0, 1, 1), "SM2": (-2, 2, 1), "SM4": (-2, 2, 2)}


@dataclass(frozen=True)
class SynapseConfig:
    kind: str
    weight: int
    max_level: int = field(init=False, repr=False, compare=False)  # the kind's highest input level

    def __post_init__(self):
        if self.kind not in SYNAPSE_KINDS:
            raise ValueError(f"unknown synapse kind {self.kind!r}")
        lo, hi, max_level = SYNAPSE_KINDS[self.kind]
        w = int(self.weight)
        if w != self.weight or not lo <= w <= hi:
            raise ValueError(f"{self.kind} weight must be an integer in [{lo},{hi}]")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "max_level", max_level)


def synapse_contribution(cfg: SynapseConfig, x: int) -> int:
    """Weighted contribution x*w of one synapse for input level x."""
    xi = int(x)
    hi = cfg.max_level
    if xi != x or not 0 <= xi <= hi:
        raise ValueError(f"input level {x} outside 0..{hi} for {cfg.kind}")
    return xi * cfg.weight


BQ_PULSE_SPACING_PS = 20.0
BQ_SANE_BOUND = 64


def bq_quantize(u: int, clock_period: float, clock_start: float, node: str = "bq") -> SpikeTrain:
    """Emit clamp(u, 0, n) pulses BQ_PULSE_SPACING_PS apart from clock_start,
    where n is the number of them that fit in one clock period.

    Inhibitory (negative) totals saturate at zero and emit nothing.
    """
    if clock_period <= 0.0:
        raise ValueError("clock_period must be positive")
    if abs(u) > BQ_SANE_BOUND:
        raise ValueError(f"synaptic total {u} outside sane bound +-{BQ_SANE_BOUND}")
    count = max(0, min(int(u), int(clock_period // BQ_PULSE_SPACING_PS)))
    return SpikeTrain(node, tuple(clock_start + k * BQ_PULSE_SPACING_PS for k in range(count)))
