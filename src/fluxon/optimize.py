"""Bounded particle swarm minimizer plus the circuit-margin objective.

The swarm follows the standard velocity/position recurrence

    v <- w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x),  x <- x + v

with constriction-style constants (w=0.72, c1=c2=1.49), a velocity clamp
of 20% of each dimension's range, and reflection at the bounds.
Iteration 0 is the evaluation of the seeded initial swarm, so a run
with n_iterations=1 reports the best initial particle unchanged.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

log = logging.getLogger("fluxon.optimize")

NOMINAL_FAIL_PENALTY = 1.0e6
INERTIA = 0.72  # w
ACCELERATION = 1.49  # c1 = c2
VMAX_FRACTION = 0.2  # velocity clamp, as a fraction of each dimension's range


@dataclass(frozen=True)
class PsoConfig:
    bounds: tuple[tuple[float, float], ...]
    n_particles: int = 30
    n_iterations: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("n_particles must be >= 2")
        for lo, hi in self.bounds:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"bad bound ({lo}, {hi})")


@dataclass(frozen=True)
class Objective:
    """Deterministic score function over a parameter vector; lower is better."""

    evaluator: Callable[[np.ndarray], float]
    description: str = ""

    def __call__(self, x: np.ndarray) -> float:
        score = float(self.evaluator(np.asarray(x, dtype=float)))
        if math.isnan(score):
            log.warning("objective %s returned NaN; treating as +inf", self.description)
            return math.inf
        return score


def _reflect(x: np.ndarray, v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Velocity clamping keeps overshoot below one span, but loop anyway.
    for _ in range(8):
        under = x < lo
        over = x > hi
        if not (under.any() or over.any()):
            break
        x = np.where(under, 2 * lo - x, x)
        x = np.where(over, 2 * hi - x, x)
        v = np.where(under | over, -v, v)
    return np.clip(x, lo, hi), v


def pso_minimize(
    obj: Objective | Callable[[np.ndarray], float],
    cfg: PsoConfig,
) -> tuple[np.ndarray, float, list[tuple[int, float, float]]]:
    """Minimize obj within cfg.bounds.

    Returns (best_vector, best_score, trace) where trace rows are
    (iteration, best_score_so_far, mean_score_of_swarm).
    """
    if not isinstance(obj, Objective):
        obj = Objective(obj)
    return _swarm(lambda pts: np.asarray([obj(p) for p in pts]), cfg)


def _swarm(
    evaluate_swarm: Callable[[np.ndarray], np.ndarray], cfg: PsoConfig
) -> tuple[np.ndarray, float, list[tuple[int, float, float]]]:
    """The swarm loop of pso_minimize; evaluate_swarm scores every row of a block."""
    rng = np.random.default_rng(cfg.seed)
    lo = np.asarray([b[0] for b in cfg.bounds])
    hi = np.asarray([b[1] for b in cfg.bounds])
    span = hi - lo
    vmax = VMAX_FRACTION * span

    x = lo + rng.random((cfg.n_particles, len(cfg.bounds))) * span
    v = (rng.random(x.shape) - 0.5) * 2.0 * vmax
    scores = evaluate_swarm(x)
    pbest = x.copy()
    pbest_scores = scores.copy()
    g = int(np.argmin(scores))
    gbest, gbest_score = x[g].copy(), float(scores[g])
    trace = [(0, gbest_score, float(np.mean(scores)))]

    for it in range(1, cfg.n_iterations):
        r1 = rng.random(x.shape)
        r2 = rng.random(x.shape)
        v = INERTIA * v + ACCELERATION * r1 * (pbest - x) + ACCELERATION * r2 * (gbest - x)
        v = np.clip(v, -vmax, vmax)
        x, v = _reflect(x + v, v, lo, hi)
        scores = evaluate_swarm(x)
        improved = scores < pbest_scores
        pbest[improved] = x[improved]
        pbest_scores[improved] = scores[improved]
        g = int(np.argmin(pbest_scores))
        if pbest_scores[g] < gbest_score:
            gbest, gbest_score = pbest[g].copy(), float(pbest_scores[g])
        trace.append((it, gbest_score, float(np.mean(scores))))

    return gbest, gbest_score, trace


def margin_objective(
    netlist,
    params: Sequence[str],
    pass_test: Callable,
    *,
    resolution: float = 0.05,
) -> Objective:
    """Objective scoring a candidate netlist by its parameter margins.

    The candidate vector is substituted into the netlist at the given
    `name.field` selectors; a candidate failing pass_test at nominal
    scores the flat penalty, otherwise the score is minus the sum of
    the worst-side margins of the listed parameters (more margin is a
    lower, better score).
    """
    from .circuit import MarginError, margin_scan

    selectors = [p.lower() for p in params]
    for sel in selectors:
        netlist.resolve_selector(sel)  # raise early on a bad selector

    def evaluate(vec: np.ndarray) -> float:
        nl = netlist
        for sel, value in zip(selectors, vec):
            nl = nl.with_param(sel, float(value))
        total = 0.0
        try:  # each scan first runs the candidate itself at nominal
            for sel in selectors:
                low, high = margin_scan(nl, sel, pass_test, resolution=resolution)
                total += min(low, high)
        except MarginError:
            return NOMINAL_FAIL_PENALTY
        return -total

    return Objective(evaluate, description=f"margins of {', '.join(selectors)}")
