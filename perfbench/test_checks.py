"""The benchmark's checks must reject deliberately wrong outputs, and its
tracer must see calls made through names other modules imported.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_flipped_output_bit_fails_spiking_check(tmp_path):
    wl = workloads.SpikingEquivalence(5, tmp_path)
    label, call = wl.ops()[40]
    spiking, discrete = call()
    assert wl.check(label, (spiking, discrete)) == []
    flipped = spiking.copy()
    flipped[1] ^= 1
    assert wl.check(label, (flipped, discrete))
    assert wl.check(label, (spiking, 1 - discrete))


def _slip(t, t0):
    """One smooth 2 pi phase slip centred on t0 and the voltage that drives it."""
    phase = math.pi * (1.0 + np.tanh((t - t0) / 2.0))
    dphi_dt = (math.pi / 2.0) / np.cosh((t - t0) / 2.0) ** 2 / 1e-12
    return phase, checks.PHI0 / (2.0 * math.pi) * dphi_dt


def test_waveform_missing_a_slip_fails_flux_checks():
    t = np.arange(0.0, 200.0, 0.05)
    phase_a, v_a = _slip(t, 50.0)
    phase_b, v_b = _slip(t, 120.0)
    phase, v = phase_a + phase_b, v_a + v_b
    assert checks.slip_count(phase) == 2
    assert checks.flux_identity_problems("b", t, v, phase) == []
    assert checks.pulse_flux_problems("b", t, v, phase) == []
    missing = phase - np.where(t >= 110.0, 2.0 * math.pi, 0.0)
    assert checks.slip_count(missing) == 1
    assert checks.flux_identity_problems("b", t, v, missing)


def test_jtl_transient_missing_a_slip_fails_cell_check(tmp_path):
    wl = workloads.CellTransients(1, tmp_path)
    traces, counts, path = wl._simulate("jtl")
    phase = dict(traces.junction_phase)
    phase["b2"] = np.minimum(phase["b2"], math.pi - 0.1)
    bad = dataclasses.replace(traces, junction_phase=phase)
    problems = wl.check("jtl", (bad, counts, path))
    assert any("b2" in p for p in problems)
    assert wl.check("jtl", wl._simulate("jtl")) == []


@pytest.mark.parametrize("side", ["low", "high"])
def test_margin_with_failing_interior_probe_fails(side):
    # passes within 29% of nominal and fails beyond: a margin of 0.28 is right
    monotone = lambda f: abs(f) <= 0.29
    assert checks.margin_side_problems(monotone, side, 0.28, 0.9, 0.02) == []
    # a pass island at the bound behind a failing interior, as b2.ic shows
    island = lambda f: abs(f) <= 0.15 or abs(f) >= 0.88
    assert checks.margin_side_problems(island, side, 0.9, 0.9, 0.02)
    # an edge reported short of where the pass region ends
    assert checks.margin_side_problems(monotone, side, 0.2, 0.9, 0.02)


def test_threshold_gate_matches_hand_evaluation():
    layers = [(np.array([[1, -1], [2, 0]]), [1, 2]), (np.array([[1, 1]]), [2])]
    X = np.array([[0, 0], [1, 0], [1, 1], [2, 1]])
    assert checks.threshold_gate(layers, X).tolist() == [[0], [1], [0], [1]]


def test_tracer_sees_imported_names_and_restores_them():
    from fluxon import snn

    spec = snn.NetworkSpec(
        input_dim=4,
        layers=(snn.LayerSpec(np.ones((4, 4), dtype=int), (1, 2, 5, 1), "SM4"),
                snn.LayerSpec(np.ones((3, 4), dtype=int), (1, 2, 5), "SM2")),
    )
    original = snn.synapse_contribution
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        snn.simulate_spiking(spec, [1, 2, 0, 1])
    finally:
        tracer.uninstall()
    assert snn.synapse_contribution is original
    assert tracer.calls["snn.simulate_spiking"] == 1
    # one synapse per weight: 4 x 4 in the first layer, 3 x 4 in the second
    assert tracer.children["snn.simulate_spiking", "behavioral.synapse_contribution"] == 28
    assert tracer.self_time["snn.simulate_spiking"] < tracer.inclusive["snn.simulate_spiking"]
