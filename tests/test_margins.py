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
    """The one-probe-at-a-time bisection that margin_scan's batches replay."""
    _, _, nominal = netlist.resolve_selector(param)

    def passes(fraction):
        return bool(pass_test(run_transient(netlist.with_param(param, nominal * (1.0 + fraction)))))

    assert passes(0.0)

    def search(sign):
        if passes(sign * bound):
            return bound
        lo, hi = 0.0, bound
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            if passes(sign * mid):
                lo = mid
            else:
                hi = mid
        return lo

    return search(-1.0), search(+1.0)


@pytest.fixture
def batch_sizes(monkeypatch):
    sizes = []
    run = margins.run_transients
    monkeypatch.setattr(margins, "run_transients", lambda nls, **kw: sizes.append(len(nls)) or run(nls, **kw))
    return sizes


def short_soma2():
    text = resources.files("fluxon.data").joinpath("netlists/soma2.cir").read_text()
    return parse_netlist(text.replace(".tran 0.1 430", ".tran 0.1 300"))


@pytest.mark.parametrize("param", ["b2.ic", "ib.amp"])
def test_batched_scan_equals_sequential_bisection(param, batch_sizes):
    nl = short_soma2()
    pass_test = lambda tr: len(detect_pulses_in(tr, "bout")) == 1
    got = margin_scan(nl, param, pass_test, resolution=0.05)
    assert got == sequential_margins(nl, param, pass_test, 0.05)
    assert max(batch_sizes) <= 3


@pytest.mark.parametrize("param", ["r1.r", "i1.dc"])
@pytest.mark.parametrize("band", [(0.62e-3, 1.0), (0.75e-3, 1.3e-3), (0.999e-3, 1.001e-3), (0.0, 1.5e-3)])
def test_divider_scan_equals_sequential_bisection(divider, param, band, batch_sizes):
    pass_test = lambda tr: band[0] <= float(tr.node_voltage["1"][-1]) <= band[1]
    got = margin_scan(divider, param, pass_test, resolution=0.01)
    assert got == sequential_margins(divider, param, pass_test, 0.01)
    if param == "i1.dc":  # nominal and both bounds, then up to two levels per batch
        assert batch_sizes[0] == 3 and max(batch_sizes) <= 3
    else:  # a resistance changes the solver's operators: no lockstep to gain
        assert max(batch_sizes) == 1


@pytest.mark.parametrize(
    "param, logged",
    [
        # high side at the bound; low side bisects 6 levels, two per batch
        ("i1.dc", "12 transients in 4 batches"),
        # the same bisection, one probe at a time
        ("r1.r", "9 transients in 9 batches"),
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


def test_failing_bound_probe_leaves_nominal_failure_a_margin_error(divider, monkeypatch):
    monkeypatch.setattr(margins, "run_transients", failing_at(-0.9))
    with pytest.raises(MarginError, match="nominal fails"):
        margin_scan(divider, "i1.dc", v_at_least(2e-3))


def test_failing_probe_raises_where_bisection_reaches_it(divider, monkeypatch):
    monkeypatch.setattr(margins, "run_transients", failing_at(-0.9))
    with pytest.raises(NewtonError):
        margin_scan(divider, "i1.dc", v_at_least(0.75e-3), resolution=0.02)


def test_failing_look_ahead_probe_is_never_needed(divider, monkeypatch):
    # low side: the midpoint -0.45 fails, so the bisection goes on to -0.225
    # and never to -0.675, which was probed ahead in the same batch
    pass_test = v_at_least(0.75e-3)
    expected = margin_scan(divider, "i1.dc", pass_test, resolution=0.02)
    monkeypatch.setattr(margins, "run_transients", failing_at(-0.675))
    assert margin_scan(divider, "i1.dc", pass_test, resolution=0.02) == expected
