"""Event-level models of the SFQ neuron cells.

The soma is a leaky integrate-and-fire unit: each incoming pulse adds
one unit to a state that decays exponentially with time constant `tau`,
and the cell fires (and resets to zero) when the state reaches a
calibrated threshold level `v_th`. The calibration is chosen so that a
soma with pulse-count threshold N fires on N unit pulses arriving at
the maximum tolerated spacing `t_max` and never fires when the spacing
is larger. Synapse cells contribute signed integer weights, and the
buffer/quantizer (BQ) stage converts a neuron's total synaptic weight
into a train of equally spaced pulses, clamping inhibitory totals at
zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import SpikeTrain

# Maximum pulse-count threshold demonstrated by the cell family.
MAX_THRESHOLD = 6

# Maximum inter-pulse spacing (ps) that must still fire an N-threshold
# soma at exactly N pulses. N=2 tolerates 65 ps; N=3 requires 20 ps;
# the remaining thresholds conservatively reuse the tighter window.
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
    """Behavioral leaky integrate-and-fire parameters.

    A t_max of 0 takes the default window for n_threshold; `v_th` is
    always calibrated from (n_threshold, t_max, tau).
    """

    n_threshold: int
    tau: float = DEFAULT_TAU_PS
    t_max: float = 0.0
    v_th: float = field(init=False)

    def __post_init__(self):
        if not 1 <= self.n_threshold <= MAX_THRESHOLD:
            raise ValueError(
                f"n_threshold must be in 1..{MAX_THRESHOLD}, got {self.n_threshold}"
            )
        if self.t_max == 0.0:
            object.__setattr__(self, "t_max", DEFAULT_T_MAX[self.n_threshold])
        if self.tau <= 0.0 or self.t_max <= 0.0:
            raise ValueError("tau and t_max must be positive")
        object.__setattr__(self, "v_th", calibrate_threshold(self.n_threshold, self.t_max, self.tau))


@dataclass(frozen=True)
class SomaState:
    """Accumulated state in pulse units plus the time of the last update."""

    level: float = 0.0
    last_time: float = 0.0


def soma_step(params: SomaParams, state: SomaState, pulse_time: float) -> tuple[SomaState, bool]:
    """Apply one incoming pulse; returns (new state, fired).

    The stored level decays by exp(-dt/tau), gains one unit, and the
    soma fires (resetting to zero) when the level reaches v_th.
    """
    if pulse_time < state.last_time:
        raise ValueError(
            f"out-of-order pulse: {pulse_time} ps before {state.last_time} ps"
        )
    level = state.level * math.exp(-(pulse_time - state.last_time) / params.tau) + 1.0
    if level >= params.v_th:
        return SomaState(0.0, pulse_time), True
    return SomaState(level, pulse_time), False


def soma_fire_times(params: SomaParams, train: SpikeTrain) -> SpikeTrain:
    """Fold soma_step over a sorted input train; the output events are the fire times."""
    state = SomaState()
    fires: list[float] = []
    for t in train.times:
        state, fired = soma_step(params, state, t)
        if fired:
            fires.append(t)
    return SpikeTrain(train.node, tuple(fires))


# --- synapse / quantizer ------------------------------------------------

SYNAPSE_KINDS = ("SM1", "SM2", "SM4")

_WEIGHT_RANGE = {"SM1": (0, 1), "SM2": (-2, 2), "SM4": (-2, 2)}
_MAX_INPUT = {"SM1": 1, "SM2": 1, "SM4": 2}
# SM2/SM4 are stacks of SM1 unit cells; a weight of magnitude m closes
# m switches on the excitatory or inhibitory branch.


@dataclass(frozen=True)
class SynapseConfig:
    kind: str
    weight: int

    def __post_init__(self):
        if self.kind not in SYNAPSE_KINDS:
            raise ValueError(f"unknown synapse kind {self.kind!r}")
        lo, hi = _WEIGHT_RANGE[self.kind]
        w = int(self.weight)
        if w != self.weight or not lo <= w <= hi:
            raise ValueError(f"{self.kind} weight must be an integer in [{lo},{hi}]")
        object.__setattr__(self, "weight", w)

    @property
    def max_input(self) -> int:
        return _MAX_INPUT[self.kind]


def synapse_contribution(cfg: SynapseConfig, x: int) -> int:
    """Weighted contribution x*w of one synapse for input level x."""
    xi = int(x)
    if xi != x or not 0 <= xi <= cfg.max_input:
        raise ValueError(f"input level {x} outside 0..{cfg.max_input} for {cfg.kind}")
    return xi * cfg.weight


BQ_PULSE_SPACING_PS = 20.0


@dataclass(frozen=True)
class BqConfig:
    """Buffer/quantizer clock: a burst holds at most the pulses,
    BQ_PULSE_SPACING_PS apart, that fit in one clock period."""

    clock_period: float = 1000.0

    def __post_init__(self):
        if self.clock_period <= 0.0:
            raise ValueError("clock_period must be positive")

    @property
    def max_pulses_per_clock(self) -> int:
        return int(self.clock_period // BQ_PULSE_SPACING_PS)


BQ_SANE_BOUND = 64


def bq_quantize(u: int, cfg: BqConfig, clock_start: float, node: str = "bq") -> SpikeTrain:
    """Emit clamp(u, 0, max_pulses_per_clock) pulses from clock_start.

    Inhibitory (negative) totals saturate at zero and emit nothing.
    """
    if abs(u) > BQ_SANE_BOUND:
        raise ValueError(f"synaptic total {u} outside sane bound +-{BQ_SANE_BOUND}")
    count = max(0, min(int(u), cfg.max_pulses_per_clock))
    return SpikeTrain(node, tuple(clock_start + k * BQ_PULSE_SPACING_PS for k in range(count)))


def soma_for_threshold(
    n: int,
    *,
    tau: float = DEFAULT_TAU_PS,
    t_max: float | None = None,
) -> SomaParams:
    """SomaParams with the default timing window for pulse-count n."""
    return SomaParams(
        n_threshold=n,
        tau=tau,
        t_max=t_max if t_max is not None else DEFAULT_T_MAX[n],
    )
