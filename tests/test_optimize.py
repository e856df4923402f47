import logging

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fluxon.optimize import (
    ACCELERATION,
    INERTIA,
    NOMINAL_FAIL_PENALTY,
    VMAX_FRACTION,
    PsoConfig,
    _reflect,
    margin_objective,
    pso_minimize,
)


def sphere(x):
    return float(np.sum(x * x))


def rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


class TestPso:
    def test_sphere_reaches_global_minimum(self):
        cfg = PsoConfig(bounds=tuple((-10.0, 10.0) for _ in range(5)),
                        n_particles=30, n_iterations=200, seed=0)
        _, best, trace = pso_minimize(sphere, cfg)
        assert best < 1e-6
        assert all(b[1] <= a[1] for a, b in zip(trace, trace[1:]))

    def test_rosenbrock_optimum_location(self):
        cfg = PsoConfig(bounds=((-2.0, 2.0), (-2.0, 2.0)),
                        n_particles=40, n_iterations=400, seed=1)
        best_x, best, _ = pso_minimize(rosenbrock, cfg)
        # oracle: dense local grid confirms (1,1) minimizes the function
        grid = np.linspace(-0.05, 0.05, 41)
        vals = [rosenbrock(np.array([1.0 + dx, 1.0 + dy])) for dx in grid for dy in grid]
        assert min(vals) == rosenbrock(np.array([1.0, 1.0])) == 0.0
        assert np.all(np.abs(best_x - 1.0) < 1e-2)

    def test_single_iteration_is_initial_best(self):
        cfg = PsoConfig(bounds=((-5.0, 5.0),) * 3, n_particles=10, n_iterations=1, seed=4)
        _, best, trace = pso_minimize(sphere, cfg)
        rng = np.random.default_rng(4)
        lo, hi = -5.0, 5.0
        x0 = lo + rng.random((10, 3)) * (hi - lo)
        assert best == pytest.approx(min(sphere(p) for p in x0))
        assert len(trace) == 1

    def test_bounds_respected(self):
        seen = []

        def probe(x):
            seen.append(x.copy())
            return sphere(x)

        cfg = PsoConfig(bounds=((-1.0, 2.0), (0.5, 3.0)), n_particles=8, n_iterations=40, seed=2)
        pso_minimize(probe, cfg)
        arr = np.asarray(seen)
        assert arr[:, 0].min() >= -1.0 and arr[:, 0].max() <= 2.0
        assert arr[:, 1].min() >= 0.5 and arr[:, 1].max() <= 3.0

    def test_seed_determinism(self):
        cfg = PsoConfig(bounds=((-3.0, 3.0),) * 4, n_particles=12, n_iterations=30, seed=9)
        a = pso_minimize(sphere, cfg)
        b = pso_minimize(sphere, cfg)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1] and a[2] == b[2]

    def test_nan_objective_becomes_inf(self, caplog):
        def nasty(x):
            return float("nan") if x[0] > 0 else sphere(x)

        cfg = PsoConfig(bounds=((-1.0, 1.0),), n_particles=6, n_iterations=10, seed=3)
        with caplog.at_level(logging.WARNING, logger="fluxon.optimize"):
            _, best, _ = pso_minimize(nasty, cfg)
        assert np.isfinite(best)
        assert "NaN" in caplog.text

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PsoConfig(bounds=((0.0, 1.0),), n_particles=1)
        with pytest.raises(ValueError):
            PsoConfig(bounds=((2.0, 1.0),))
        with pytest.raises(ValueError, match="n_iterations must be >= 1"):
            PsoConfig(bounds=((0.0, 1.0),), n_iterations=0)


def reference_reflect(x, v, lo, hi):
    """The former reflection: reflect until inside, at most 8 passes, then clip."""
    for _ in range(8):
        under = x < lo
        over = x > hi
        if not (under.any() or over.any()):
            break
        x = np.where(under, 2 * lo - x, x)
        x = np.where(over, 2 * hi - x, x)
        v = np.where(under | over, -v, v)
    return np.clip(x, lo, hi), v


@st.composite
def overshooting_swarms(draw):
    # positions up to 0.2 of a span (the velocity clamp) outside either bound
    n, dim = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    lo = np.asarray(draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)))
    span = np.asarray(draw(st.lists(st.floats(1e-6, 1e3), min_size=dim, max_size=dim)))
    u = np.asarray(draw(st.lists(st.floats(-0.2, 1.2), min_size=n * dim, max_size=n * dim)))
    v = np.asarray(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * dim, max_size=n * dim)))
    return lo + u.reshape(n, dim) * span, v.reshape(n, dim) * 0.2 * span, lo, lo + span


@given(overshooting_swarms())
def test_one_pass_reflect_matches_the_loop(swarm):
    x, v, lo, hi = swarm
    got_x, got_v = _reflect(x, v, lo, hi)
    want_x, want_v = reference_reflect(x, v, lo, hi)
    assert np.array_equal(got_x, want_x) and np.array_equal(got_v, want_v)


def reference_pso_minimize(obj, cfg):
    """The former swarm loop: the initial swarm scored and ranked before the loop."""

    def evaluate(block):
        scores = np.asarray([obj(p) for p in block], dtype=float)
        return np.where(np.isnan(scores), np.inf, scores)

    rng = np.random.default_rng(cfg.seed)
    lo = np.asarray([b[0] for b in cfg.bounds])
    hi = np.asarray([b[1] for b in cfg.bounds])
    span = hi - lo
    vmax = VMAX_FRACTION * span
    x = lo + rng.random((cfg.n_particles, len(cfg.bounds))) * span
    v = (rng.random(x.shape) - 0.5) * 2.0 * vmax
    scores = evaluate(x)
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
        scores = evaluate(x)
        improved = scores < pbest_scores
        pbest[improved] = x[improved]
        pbest_scores[improved] = scores[improved]
        g = int(np.argmin(pbest_scores))
        if pbest_scores[g] < gbest_score:
            gbest, gbest_score = pbest[g].copy(), float(pbest_scores[g])
        trace.append((it, gbest_score, float(np.mean(scores))))
    return gbest, gbest_score, trace


def nan_first_swarm(n_particles):
    """An objective NaN on its first n_particles calls, the whole initial swarm, then the sphere."""
    calls = []

    def obj(x):
        calls.append(None)
        return float("nan") if len(calls) <= n_particles else sphere(x)

    return obj


@pytest.mark.parametrize("make_obj,n_particles,n_iterations", [
    pytest.param(lambda n: sphere, 9, 25, id="sphere"),
    # no first best: gbest starts as the first particle at +inf
    pytest.param(nan_first_swarm, 7, 20, id="nan-first-swarm"),
    pytest.param(lambda n: sphere, 10, 1, id="one-iteration"),
])
def test_pso_matches_reference(make_obj, n_particles, n_iterations):
    cfg = PsoConfig(bounds=((-4.0, 3.0), (-1.0, 5.0), (0.5, 2.0)),
                    n_particles=n_particles, n_iterations=n_iterations, seed=13)
    got_x, got_score, got_trace = pso_minimize(make_obj(n_particles), cfg)
    want_x, want_score, want_trace = reference_pso_minimize(make_obj(n_particles), cfg)
    assert np.array_equal(got_x, want_x) and got_score == want_score and got_trace == want_trace
    assert len(got_trace) == n_iterations


@pytest.fixture(scope="module")
def divider_netlist():
    # purely resistive divider: v(1) settles at i*r, margins are analytic
    from fluxon.circuit import parse_netlist

    return parse_netlist(
        """
* current source into a resistor
i1 0 1 dc 1m
r1 1 0 1
.tran 0.1 2
.print v(1)
"""
    )


def v_end_at_least(threshold):
    def pass_test(traces):
        return float(traces.node_voltage["1"][-1]) >= threshold

    return pass_test


class TestMarginObjective:
    def test_nominal_failure_penalty(self, divider_netlist):
        obj = margin_objective(divider_netlist, ["r1.r"], v_end_at_least(2e-3))
        assert obj(np.array([1.0])) == NOMINAL_FAIL_PENALTY

    def test_score_is_negated_margin_sum(self, divider_netlist):
        # pass iff v >= 0.75 mV: resistance margin is -25% (low), +90% capped
        obj = margin_objective(divider_netlist, ["r1.r"], v_end_at_least(0.75e-3), resolution=0.01)
        score = obj(np.array([1.0]))
        assert score == pytest.approx(-(0.25), abs=0.02)

    def test_irrelevant_bounds_leave_score_unchanged(self, divider_netlist):
        obj = margin_objective(divider_netlist, ["r1.r"], v_end_at_least(0.75e-3), resolution=0.05)
        s1 = obj(np.array([1.0]))
        s2 = obj(np.array([1.0]))  # bounds live in PsoConfig, not the objective
        assert s1 == s2

    def test_nominal_runs_only_inside_the_scan(self, divider_netlist, monkeypatch):
        # margin_scan tests the candidate at nominal before it bisects, so an
        # evaluation runs exactly the transients of its scan and no more
        # every transient, solo or batched, runs through transient._run_group
        from fluxon.circuit import margin_scan, transient

        calls = []
        run = transient._run_group
        counted = lambda batch, *a, **k: calls.extend(batch) or run(batch, *a, **k)
        monkeypatch.setattr(transient, "_run_group", counted)
        pass_test = v_end_at_least(0.75e-3)
        obj = margin_objective(divider_netlist, ["r1.r"], pass_test, resolution=0.05)
        score = obj(np.array([1.0]))
        per_eval = len(calls)
        calls.clear()
        low, high = margin_scan(divider_netlist, "r1.r", pass_test, resolution=0.05)
        assert score == -min(low, high)
        assert per_eval == len(calls)

    def test_bad_selector(self, divider_netlist):
        with pytest.raises(KeyError):
            margin_objective(divider_netlist, ["r9.r"], v_end_at_least(0.0))
