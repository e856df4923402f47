"""Bounded particle swarm minimizer plus the circuit-margin objective.

The swarm follows the standard velocity/position recurrence

    v <- w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x),  x <- x + v

with constriction-style constants (w=0.72, c1=c2=1.49), a velocity clamp
of 20% of each dimension's range, and reflection at the bounds.
Iteration 0 is the evaluation of the seeded initial swarm, so a run
with n_iterations=1 reports the best initial particle unchanged.
A NaN score counts as +inf, so that particle never becomes a best;
each block of scores holding a NaN logs one warning.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circuit import MarginError, margin_scan

log = logging.getLogger("fluxon.optimize")

NOMINAL_FAIL_PENALTY = 1.0e6
INERTIA = 0.72  # w
ACCELERATION = 1.49  # c1 = c2
VMAX_FRACTION = 0.2  # velocity clamp, as a fraction of each dimension's range


@dataclass(frozen=True)
class PsoConfig:
    bounds: tuple[tuple[float, float], ...]
    n_particles: int = 12
    n_iterations: int = 60
    seed: int = 0

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("n_particles must be >= 2")
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        for lo, hi in self.bounds:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"bad bound ({lo}, {hi})")


def _reflect(x: np.ndarray, v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The velocity clamp keeps overshoot within VMAX_FRACTION of a span, so
    # one reflection lands inside the bounds; the clip only guards round-off.
    under, over = x < lo, x > hi
    x = np.where(under, 2 * lo - x, np.where(over, 2 * hi - x, x))
    return np.clip(x, lo, hi), np.where(under | over, -v, v)


def pso_minimize(
    obj: Callable[[np.ndarray], float],
    cfg: PsoConfig,
) -> tuple[np.ndarray, float, list[tuple[int, float, float]]]:
    """Minimize obj within cfg.bounds.

    Returns (best_vector, best_score, trace) where trace rows are
    (iteration, best_score_so_far, mean_score_of_swarm).
    """

    def evaluate(block: np.ndarray) -> np.ndarray:
        scores = np.asarray([obj(p) for p in block], dtype=float)
        nan = np.isnan(scores)
        if nan.any():
            log.warning("objective returned NaN for %d of %d particles; treating as +inf",
                        nan.sum(), len(scores))
        return np.where(nan, np.inf, scores)

    rng = np.random.default_rng(cfg.seed)
    lo = np.asarray([b[0] for b in cfg.bounds])
    hi = np.asarray([b[1] for b in cfg.bounds])
    span = hi - lo
    vmax = VMAX_FRACTION * span

    x = lo + rng.random((cfg.n_particles, len(cfg.bounds))) * span
    v = (rng.random(x.shape) - 0.5) * 2.0 * vmax
    pbest, pbest_scores = x.copy(), np.full(cfg.n_particles, np.inf)
    gbest, gbest_score, trace = None, np.inf, []
    for it in range(cfg.n_iterations):  # iteration 0 evaluates the initial swarm
        if it > 0:
            r1 = rng.random(x.shape)
            r2 = rng.random(x.shape)
            v = INERTIA * v + ACCELERATION * r1 * (pbest - x) + ACCELERATION * r2 * (gbest - x)
            v = np.clip(v, -vmax, vmax)
            x, v = _reflect(x + v, v, lo, hi)
        scores = evaluate(x)
        improved = scores < pbest_scores
        pbest[improved] = x[improved]
        pbest_scores[improved] = scores[improved]
        g = int(np.argmin(pbest_scores))
        if gbest is None or pbest_scores[g] < gbest_score:
            gbest, gbest_score = pbest[g].copy(), float(pbest_scores[g])
        trace.append((it, gbest_score, float(np.mean(scores))))

    return gbest, gbest_score, trace


def margin_objective(
    netlist,
    params: Sequence[str],
    pass_test: Callable,
    *,
    resolution: float = 0.05,
) -> Callable[[np.ndarray], float]:
    """Score function of a candidate netlist by its parameter margins; lower is better.

    The candidate vector is substituted into the netlist at the given
    `name.field` selectors; a candidate failing pass_test at nominal
    scores the flat penalty, otherwise the score is minus the sum of
    the worst-side margins of the listed parameters (more margin is a
    lower, better score).
    """
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

    return evaluate
