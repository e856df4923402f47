import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fluxon.circuit import (
    detect_pulses,
    detect_pulses_in,
    flux_integrals,
    parse_netlist,
    run_transient,
)
from fluxon.circuit import pulses
from fluxon.circuit.pulses import crossings, stamp_crossings
from fluxon.core import PHI0, SpikeTrain


def test_constant_phase_no_events():
    t = np.linspace(0, 100, 1001)
    assert len(detect_pulses(t, np.zeros_like(t))) == 0


def test_linear_ramp_counts_slips():
    t = np.linspace(0, 100, 1001)
    phase = np.linspace(0, 6 * math.pi, 1001)
    train = detect_pulses(t, phase)
    assert len(train) == 3
    # crossings of pi, 3pi, 5pi on the linear ramp
    for got, want in zip(train.times, (100 / 6, 50.0, 500 / 6)):
        assert got == pytest.approx(want, abs=1e-9)


def test_interpolated_timestamp():
    t = np.array([0.0, 1.0, 2.0])
    phase = np.array([0.0, math.pi - 0.5, math.pi + 0.5])
    train = detect_pulses(t, phase)
    assert train.times == (1.5,)


def test_fast_multislip_sample():
    t = np.array([0.0, 1.0])
    phase = np.array([0.0, 4.5 * math.pi])
    assert len(detect_pulses(t, phase)) == 2


def per_sample_search(time_ps, phase, target):
    """The sample-by-sample search detect_pulses once ran, kept as the
    oracle of stamp_crossings: its events and the next target."""
    events = []
    for i in range(1, len(phase)):
        if phase[i] >= target:
            target = crossings(time_ps[i - 1], time_ps[i], phase[i - 1], phase[i], target, events)
    return events, target


# Phase steps: still samples (equal neighbours), steps of a whole number of
# half turns (samples landing on a target), jumps over several targets in
# one step, and falls that the phase later climbs back from.
PHASE_STEPS = st.sampled_from([0.0, math.pi, 2 * math.pi, 5 * math.pi]) | st.floats(-7.0, 9.0)


@st.composite
def phase_traces(draw):
    n = draw(st.integers(0, 40))
    start = draw(st.sampled_from([0.0, math.pi, 3.5 * math.pi]) | st.floats(-4.0, 12.0))
    phase = start + np.cumsum([0.0] + draw(st.lists(PHASE_STEPS, min_size=n, max_size=n)))
    time_ps = np.cumsum(draw(st.lists(st.floats(0.01, 2.0), min_size=n + 1, max_size=n + 1)))
    return time_ps, phase


@given(phase_traces(), st.sampled_from([math.pi, 3 * math.pi, 7 * math.pi]),
       st.sampled_from([1, 2, 5, pulses.SEARCH_WINDOW]))
def test_search_finds_what_the_per_sample_loop_finds(trace, target, window):
    time_ps, phase = trace
    events = []
    with mock.patch.object(pulses, "SEARCH_WINDOW", window):  # crossings on window edges too
        assert stamp_crossings(time_ps, phase, target, events) == per_sample_search(time_ps, phase, target)[1]
        assert events == per_sample_search(time_ps, phase, target)[0]
        want = SpikeTrain("", tuple(per_sample_search(time_ps, phase, math.pi)[0]))
        assert detect_pulses(time_ps, phase) == want


def test_equal_samples_above_the_target_stamp_the_later_one():
    # only the first sample can sit on or above the target unseen, so a
    # still second sample takes the p1 == p0 path
    t = np.array([0.0, 1.0, 2.0])
    phase = np.array([4.0, 4.0, 4.0])
    events = []
    assert stamp_crossings(t, phase, math.pi, events) == 3 * math.pi
    assert events == per_sample_search(t, phase, math.pi)[0] == [1.0]


@pytest.fixture(scope="module")
def jtl_traces():
    from importlib import resources

    text = resources.files("fluxon.data").joinpath("netlists/jtl.cir").read_text()
    return run_transient(parse_netlist(text))


def test_jtl_passes_exactly_one_pulse(jtl_traces):
    assert len(detect_pulses_in(jtl_traces, "b1")) == 1
    assert len(detect_pulses_in(jtl_traces, "b2")) == 1


def test_jtl_flux_quantization(jtl_traces):
    fx = flux_integrals(
        jtl_traces.time_ps,
        jtl_traces.junction_phase["b2"],
        jtl_traces.junction_voltage["b2"],
    )
    assert len(fx) == 1
    assert fx[0] == pytest.approx(PHI0, rel=0.02)


def test_jtl_train_flux_quantization():
    from importlib import resources

    text = resources.files("fluxon.data").joinpath("netlists/jtl.cir").read_text()
    text = text.replace("vin in 0 pulse 100 2 0 2 1.034m", "vin in 0 ptrain 100 25 4 4 1.034m")
    tr = run_transient(parse_netlist(text))
    out = detect_pulses_in(tr, "b2")
    assert len(out) == 4
    fx = flux_integrals(tr.time_ps, tr.junction_phase["b2"], tr.junction_voltage["b2"])
    assert np.all(np.abs(fx / PHI0 - 1.0) < 0.02)
    # uniform spacing preserved through the stage
    gaps = np.diff(out.times)
    assert np.all(np.abs(gaps - 25.0) < 0.5)
