import dataclasses
import math
from importlib import resources

import pytest

from fluxon.circuit import (
    MarginError,
    NewtonError,
    detect_pulses_in,
    margin_scan,
    margins,
    parse_netlist,
    run_transient,
    transient,
)

DIVIDER = """
* current source into a resistor: v(1) = i * r
i1 0 1 dc 1m
r1 1 0 1
.tran 0.1 2
.print v(1)
"""


def v_at_least(threshold):
    def pass_test(traces):
        return float(traces.node_voltage["1"][-1]) >= threshold

    return pass_test


@pytest.fixture(scope="module")
def divider():
    return parse_netlist(DIVIDER)


def test_trivially_true_hits_search_bound(divider):
    low, high = margin_scan(divider, "r1.r", lambda tr: True)
    assert low == 0.9 and high == 0.9


def test_nominal_failure_raises(divider):
    with pytest.raises(MarginError, match="nominal fails"):
        margin_scan(divider, "r1.r", v_at_least(2e-3))


def test_analytic_one_sided_margin(divider):
    # pass iff r >= 0.75: low margin 25%, high side saturates at the bound
    low, high = margin_scan(divider, "r1.r", v_at_least(0.75e-3), resolution=0.01)
    assert low == pytest.approx(0.25, abs=0.011)
    assert high == 0.9


def test_bisection_matches_exhaustive_sweep(divider):
    # oracle: walk outward in 1% steps until pass_test flips
    pass_test = v_at_least(0.62e-3)

    def sweep(sign):
        frac = 0.0
        while frac + 0.01 <= 0.9:
            nl = divider.with_param("r1.r", 1.0 * (1.0 + sign * (frac + 0.01)))
            if not pass_test(run_transient(nl)):
                return frac
            frac += 0.01
        return 0.9

    low, high = margin_scan(divider, "r1.r", pass_test, resolution=0.01)
    assert abs(low - sweep(-1.0)) <= 0.011
    assert abs(high - sweep(+1.0)) <= 0.011


@pytest.mark.parametrize("resolution", [0.0, -0.01, math.nan])
def test_resolution_and_bound_must_be_positive_and_finite(divider, resolution, monkeypatch):
    monkeypatch.setattr(margins, "run_transients", None)  # rejected before any transient
    with pytest.raises(ValueError, match="must be positive and finite") as info:
        margin_scan(divider, "r1.r", lambda tr: True, resolution=resolution)
    assert type(info.value) is ValueError  # not a MarginError, which margin_objective scores


def test_resolution_below_float_spacing_stops_the_bisection(divider):
    low, high = margin_scan(divider, "r1.r", v_at_least(0.75e-3), resolution=1e-20)
    assert low == pytest.approx(0.25, abs=1e-12) and high == 0.9


def test_unknown_selector(divider):
    with pytest.raises(KeyError):
        margin_scan(divider, "r9.r", lambda tr: True)


def sequential_margins(netlist, param, pass_test, resolution, bound=0.9):
    """margin_scan's grid-and-refine rule one probe at a time: each side
    walks its points outward and stops at the first failure."""
    _, _, nominal = netlist.resolve_selector(param)

    def passes(fraction):
        return bool(pass_test(run_transient(netlist.with_param(param, nominal * (1.0 + fraction)))))

    assert passes(0.0)

    def search(sign):
        lo, hi = 0.0, None
        points = [bound * k / 9 for k in range(1, 9)] + [bound]
        while points:
            for f in points:
                if not passes(sign * f):
                    hi = f
                    break
                lo = f
            if hi is None:
                return lo
            n = min(9, math.ceil((hi - lo) / resolution - 1e-9))
            points = [f for f in (lo + (hi - lo) * k / n for k in range(1, n)) if lo < f < hi]
        return lo

    return search(-1.0), search(+1.0)


@pytest.fixture
def batch_sizes(monkeypatch):
    sizes = []
    run = margins.run_transients
    monkeypatch.setattr(margins, "run_transients", lambda nls, **kw: sizes.append(len(nls)) or run(nls, **kw))
    return sizes


def short_soma2():
    """The bundled soma2 netlist at its own step, cut to 300 ps."""
    nl = parse_netlist(resources.files("fluxon.data").joinpath("netlists/soma2.cir").read_text())
    return dataclasses.replace(nl, tran_stop=300.0)


BATCHES = {  # the grid, then each side's 0.1-wide bracket in two parts
    "b2.ic": [19, 2],  # both sides fail inside the bound
    "ib.amp": [19, 1],  # the high side passes at every grid point
}


@pytest.mark.parametrize("param", ["b2.ic", "ib.amp"])
def test_batched_scan_equals_sequential_bisection(param, batch_sizes):
    nl = short_soma2()
    pass_test = lambda tr: len(detect_pulses_in(tr, "bout")) == 1
    got = margin_scan(nl, param, pass_test, resolution=0.05)
    assert got == sequential_margins(nl, param, pass_test, 0.05)
    assert batch_sizes == BATCHES[param]


@pytest.mark.parametrize("param", ["r1.r", "i1.dc"])
@pytest.mark.parametrize("band", [(0.62e-3, 1.0), (0.75e-3, 1.3e-3), (0.999e-3, 1.001e-3), (0.0, 1.5e-3)])
def test_divider_scan_equals_sequential_bisection(divider, param, band, batch_sizes):
    pass_test = lambda tr: band[0] <= float(tr.node_voltage["1"][-1]) <= band[1]
    got = margin_scan(divider, param, pass_test, resolution=0.01)
    assert got == sequential_margins(divider, param, pass_test, 0.01)
    # nominal and the grid, then at most eight points a side; a resistance runs
    # the same batches, each variant in a lockstep group of its own
    assert batch_sizes[0] == 19 and all(n <= 16 for n in batch_sizes[1:])


@pytest.mark.parametrize(
    "param, logged",
    [
        # high side at the bound; the low side's bracket (0.2, 0.3) splits in five
        ("i1.dc", "23 transients in 2 batches"),
        # the same batches, one transient at a time within each
        ("r1.r", "23 transients in 2 batches"),
    ],
)
def test_scan_logs_its_counts(divider, param, logged, batch_sizes, caplog):
    with caplog.at_level("INFO", logger="fluxon.margins"):
        margin_scan(divider, param, v_at_least(0.75e-3), resolution=0.02)
    assert f"margins: {param}: {logged}" in caplog.text
    assert len(batch_sizes) == int(logged.split()[-2])


def failing_at(fraction):
    """run_transients that raises NewtonError on the divider's i1.dc probe at fraction."""
    run = margins.run_transients

    def runs(netlists, **kw):
        if any(math.isclose(nl.device("i1").waveform.value, 1e-3 * (1.0 + fraction)) for nl in netlists):
            raise NewtonError(1.0, 50, 1.0, 1.0)
        return run(netlists, **kw)

    return runs


def test_failing_probe_raises_where_bisection_reaches_it(divider, monkeypatch):
    monkeypatch.setattr(margins, "run_transients", failing_at(-0.9))
    with pytest.raises(NewtonError):
        margin_scan(divider, "i1.dc", v_at_least(0.75e-3), resolution=0.02)


@pytest.mark.parametrize("fraction", [0.0, -0.5, -0.24])
def test_newton_error_in_any_probe_propagates(divider, monkeypatch, fraction):
    # nominal, a grid point past the first failure (-0.3), and a refinement
    # point: no probe's error is dropped, whether or not its result counts
    monkeypatch.setattr(margins, "run_transients", failing_at(fraction))
    with pytest.raises(NewtonError):
        margin_scan(divider, "i1.dc", v_at_least(0.75e-3), resolution=0.02)


@pytest.mark.parametrize("param", ["r1.r", "i1.dc"])
def test_island_beyond_the_first_failure_is_not_margin(divider, param):
    # v(1) = 1 mV * (1 + f): the pass test fails for -0.65 <= f <= -0.45 and
    # holds again below; the bound passes, but the margin stops at -0.45
    pass_test = lambda tr: not 0.35e-3 <= float(tr.node_voltage["1"][-1]) <= 0.55e-3
    low, high = margin_scan(divider, param, pass_test, resolution=0.01)
    assert low == pytest.approx(0.45, abs=0.01) and low < 0.45
    assert high == 0.9


# soma2's lockstep parameters, every junction ic and source amplitude, and
# two that run solo, whose margins are pinned
SOMA2_LOCKSTEP = ["bj1.ic", "bj2.ic", "b1.ic", "b2.ic", "bo1.ic", "bout.ic",
                  "vin.amp", "ib.amp", "ibo1.amp", "ibout.amp"]
SOMA2_SOLO = {"lloop.l": (78.0, 62.0), "rloop.r": (60.0, 90.0)}


def test_margins_equal_at_both_tolerances(monkeypatch):
    # margin_scan's probes solve to PROBE_FTOL; at NEWTON_FTOL the soma2
    # margins, at the `fluxon margins` resolution and pass test, are the same
    soma2 = parse_netlist(resources.files("fluxon.data").joinpath("netlists/soma2.cir").read_text())
    solved_to = set()
    pass_test = lambda tr: solved_to.add(tr.newton_ftol) or len(detect_pulses_in(tr, "bout")) == 1

    def table(ftol):
        solved_to.clear()
        got = {p: margin_scan(soma2, p, pass_test, resolution=0.02) for p in SOMA2_LOCKSTEP + list(SOMA2_SOLO)}
        assert solved_to == {ftol}
        return got

    probe = table(transient.PROBE_FTOL)
    monkeypatch.setattr(margins, "PROBE_FTOL", transient.NEWTON_FTOL)
    assert probe == table(transient.NEWTON_FTOL)
    assert {p: (round(100 * probe[p][0], 1), round(100 * probe[p][1], 1)) for p in SOMA2_SOLO} == SOMA2_SOLO


def test_zero_nominal_raises_before_any_transient(monkeypatch):
    # soma2's loop inductor has no ic; scaling 0 leaves every variant the nominal circuit
    soma2 = parse_netlist(resources.files("fluxon.data").joinpath("netlists/soma2.cir").read_text())

    def no_transient(*args, **kwargs):
        raise AssertionError("a zero nominal ran a transient")

    monkeypatch.setattr(margins, "run_transients", no_transient)
    with pytest.raises(MarginError, match=r"^lloop\.ic is 0 at nominal, so it has no relative margins$"):
        margin_scan(soma2, "lloop.ic", lambda tr: True)
    assert margins.margin_nominal(soma2, "b2.ic") == soma2.resolve_selector("b2.ic")[2]
    with pytest.raises(KeyError):
        margins.margin_nominal(soma2, "b2.name")
