import math

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
from fluxon.circuit.pulses import stamp_crossings
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
    # a sample that reaches two targets is an error, not two pulses
    t = np.array([0.0, 1.0])
    phase = np.array([0.0, 4.5 * math.pi])
    with pytest.raises(ValueError, match=r"^phase slips more than once on the step to t = 1.0000 ps$"):
        detect_pulses(t, phase)


@pytest.mark.parametrize("last", [math.inf, 1e17, math.nan])
def test_a_phase_past_any_step_is_an_error(last):
    # a search for these never ended: a running maximum never passes an
    # infinite or NaN sample, and adding 2 pi to a target near 1e17 does
    # not move it
    with pytest.raises(ValueError):
        detect_pulses(np.array([0.0, 1.0]), np.array([0.0, last]))


def crossings(t0, t1, p0, p1, target, events):
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


def per_sample_search(time_ps, phase, target):
    """A sample-by-sample search that stamps every target a sample
    reaches, kept as the oracle of stamp_crossings: its events, the next
    target, and how many of the events come before the second crossing of
    the first sample that reaches two targets (None if no sample does)."""
    events, cut = [], None
    for i in range(1, len(phase)):
        if phase[i] >= target:
            before = len(events)
            target = crossings(time_ps[i - 1], time_ps[i], phase[i - 1], phase[i], target, events)
            if cut is None and len(events) - before > 1:
                cut = before + 1
    return events, target, cut


# Phase steps: still samples (equal neighbours), steps of a whole number of
# half turns (samples landing on a target), jumps over several targets in
# one step (an error), and falls that the phase later climbs back from.
# Half the traces keep each step within one turn, so that most of those
# reach no two targets on one sample.
PHASE_STEPS = st.sampled_from([0.0, math.pi, 2 * math.pi, 5 * math.pi]) | st.floats(-7.0, 9.0)
TURN_STEPS = st.sampled_from([0.0, math.pi, 2 * math.pi]) | st.floats(-7.0, 2 * math.pi)


@st.composite
def phase_traces(draw):
    n = draw(st.integers(0, 40))
    start = draw(st.sampled_from([0.0, math.pi, 3.5 * math.pi]) | st.floats(-4.0, 12.0))
    steps = draw(st.sampled_from([PHASE_STEPS, TURN_STEPS]))
    phase = start + np.cumsum([0.0] + draw(st.lists(steps, min_size=n, max_size=n)))
    time_ps = np.cumsum(draw(st.lists(st.floats(0.01, 2.0), min_size=n + 1, max_size=n + 1)))
    return time_ps, phase


@given(phase_traces(), st.sampled_from([math.pi, 3 * math.pi, 7 * math.pi]))
def test_search_finds_what_the_per_sample_loop_finds(trace, target):
    time_ps, phase = trace
    want, next_target, cut = per_sample_search(time_ps, phase, target)
    events = []
    if cut is None:
        assert stamp_crossings(time_ps, phase, target, events) == next_target
        assert events == want
    else:  # the events up to the first crossing of the first sample that reaches two targets
        with pytest.raises(ValueError, match="^phase slips more than once on the step to t = "):
            stamp_crossings(time_ps, phase, target, events)
        assert events == want[:cut]
    want, _, cut = per_sample_search(time_ps, phase, math.pi)
    if cut is None:
        assert detect_pulses(time_ps, phase) == SpikeTrain("", tuple(want))
    else:
        with pytest.raises(ValueError, match="^phase slips more than once on the step to t = "):
            detect_pulses(time_ps, phase)


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
