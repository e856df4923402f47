import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fluxon.circuit import (
    CurrentSource,
    Dc,
    Inductor,
    Junction,
    Mutual,
    Netlist,
    NetlistError,
    Pulse,
    PulseTrain,
    Resistor,
    Sine,
    critical_damping_cap,
    default_rn,
    parse_netlist,
    parse_value,
)
from fluxon.core import PHI0


class TestValues:
    @pytest.mark.parametrize(
        "token,value",
        [
            ("109u", 109e-6),
            ("30.12p", 30.12e-12),
            ("6.1", 6.1),
            ("0.4p", 0.4e-12),
            ("2.5k", 2500.0),
            ("1.02", 1.02),
            ("5f", 5e-15),
            ("1e3", 1000.0),
            ("30.12pH", 30.12e-12),
        ],
    )
    def test_suffixes(self, token, value):
        assert parse_value(token) == pytest.approx(value, rel=1e-12)

    def test_garbage(self):
        with pytest.raises(NetlistError):
            parse_value("abc")


class TestParse:
    def test_junction_with_fields(self):
        nl = parse_netlist("B1 1 0 ic=109u rn=6.1 cap=0.4p\n.tran 0.1 10")
        (j,) = [d for d in nl.devices if isinstance(d, Junction)]
        assert j.ic == pytest.approx(1.09e-4)
        assert j.rn == 6.1
        assert j.cap == pytest.approx(0.4e-12)

    def test_junction_defaults(self):
        nl = parse_netlist("B1 1 0 ic=100u")
        (j,) = [d for d in nl.devices if isinstance(d, Junction)]
        assert j.rn == pytest.approx(default_rn(100e-6)) == pytest.approx(2.5)
        # beta_c = 1: C = PHI0 / (2 pi Ic Rn^2)
        assert j.cap == pytest.approx(PHI0 / (2 * math.pi * 100e-6 * 2.5**2))
        assert j.cap == pytest.approx(critical_damping_cap(j.ic, j.rn))

    def test_sm1_cell_parses(self):
        from importlib import resources

        text = resources.files("fluxon.data").joinpath("netlists/sm1.cir").read_text()
        nl = parse_netlist(text)
        assert sum(isinstance(d, Junction) for d in nl.devices) == 2
        assert sum(isinstance(d, Inductor) for d in nl.devices) >= 4
        assert any(isinstance(d, Resistor) and d.r == 1.02 for d in nl.devices)

    def test_unknown_device_letter(self):
        with pytest.raises(NetlistError, match="line 1"):
            parse_netlist("Q1 1 0 5")

    def test_case_insensitive_and_comments(self):
        nl = parse_netlist("* title line\nR1 A B 2.5 * trailing comment\n.TRAN 0.05 100\n")
        (r,) = [d for d in nl.devices if isinstance(d, Resistor)]
        assert (r.np_, r.nm, r.r) == ("a", "b", 2.5)
        assert nl.tran_step == 0.05 and nl.tran_stop == 100.0

    def test_tran_accepts_suffixed_seconds(self):
        nl = parse_netlist("r1 1 0 1\n.tran 0.05p 100p")
        assert nl.tran_step == pytest.approx(0.05)
        assert nl.tran_stop == pytest.approx(100.0)

    def test_sources(self):
        nl = parse_netlist(
            "i1 0 1 dc 150u\n"
            "i2 0 1 pulse 10 2 5 2 1m\n"
            "v1 2 0 ptrain 100 25 3 4 1.034m\n"
        )
        srcs = [d for d in nl.devices if isinstance(d, CurrentSource)]
        assert isinstance(srcs[0].waveform, Dc) and srcs[0].waveform.value == pytest.approx(150e-6)
        p = srcs[1].waveform
        assert isinstance(p, Pulse) and (p.delay, p.rise, p.width, p.fall) == (10, 2, 5, 2)
        t = nl.device("v1").waveform
        assert isinstance(t, PulseTrain) and t.count == 3

    def test_ptrain_period_must_exceed_width(self):
        with pytest.raises(NetlistError):
            parse_netlist("i1 0 1 ptrain 0 4 3 4 1m")

    def test_ptrain_width_must_halve(self):
        with pytest.raises(NetlistError, match="too small to halve"):
            parse_netlist("i1 0 1 ptrain 0 4 3 5e-324 1m")

    def test_sine_period_must_be_nonzero(self):
        with pytest.raises(NetlistError, match="sine period"):
            parse_netlist("i1 0 1 sin 0 1m 0")

    def test_negative_element_value(self):
        with pytest.raises(NetlistError):
            parse_netlist("r1 1 0 -2")
        with pytest.raises(NetlistError):
            parse_netlist("l1 1 0 0")

    def test_mutual_references_existing_inductors(self):
        with pytest.raises(NetlistError, match="unknown inductor"):
            parse_netlist("l1 1 0 10p\nk1 l1 l9 1p")

    def test_mutual_coupling_bound(self):
        with pytest.raises(NetlistError, match="exceeds"):
            parse_netlist("l1 1 0 10p\nl2 2 0 10p\nk1 l1 l2 11p")
        nl = parse_netlist("l1 1 0 10p\nl2 2 0 10p\nk1 l1 l2 10p")
        assert any(isinstance(d, Mutual) for d in nl.devices)

    def test_duplicate_device_name(self):
        with pytest.raises(NetlistError, match="^line 2: duplicate device name 'b1'$"):
            parse_netlist("b1 1 0 ic=100u\nb1 2 0 ic=100u\nl1 1 2 2p")

    def test_repeated_tran(self):
        with pytest.raises(NetlistError, match="line 4: repeated .tran; the first is on line 2") as exc:
            parse_netlist("r1 1 0 1\n.tran 0.1 10\ni1 0 1 dc 1m\n.tran 0.2 20\n")
        assert exc.value.lineno == 4

    @pytest.mark.parametrize(
        "tran", ["0.05 -5", "0 10", "-0.05 10", "0.05 0", "0.05 1e999", "1e999 10"]
    )
    def test_tran_must_be_positive_and_finite(self, tran):
        with pytest.raises(NetlistError, match=r"^line 2: \.tran step and stop must be positive") as exc:
            parse_netlist(f"r1 1 0 1\n.tran {tran}\n")
        assert exc.value.lineno == 2

    def test_print_requests(self):
        nl = parse_netlist("b1 1 0 ic=100u\n.print v(1) phi(b1)")
        assert nl.prints == (("v", "1"), ("phi", "b1"))
        with pytest.raises(NetlistError):
            parse_netlist(".print vee(1)")


class TestSelectors:
    @pytest.fixture()
    def nl(self):
        return parse_netlist("b1 1 0 ic=100u\nl1 1 2 10p\nr1 2 0 2\nib 0 1 dc 50u")

    def test_resolve(self, nl):
        _, fld, val = nl.resolve_selector("b1.ic")
        assert fld == "ic" and val == pytest.approx(100e-6)
        _, fld, val = nl.resolve_selector("ib.dc")
        assert fld == "value" and val == pytest.approx(50e-6)

    def test_with_param_immutably_substitutes(self, nl):
        nl2 = nl.with_param("r1.r", 4.0)
        assert nl.device("r1").r == 2.0
        assert nl2.device("r1").r == 4.0

    def test_with_param_on_source_amplitude(self):
        nl = parse_netlist("ib 0 1 pulse 0 50 1e6 0 369u")
        nl2 = nl.with_param("ib.amp", 400e-6)
        assert nl2.device("ib").waveform.amplitude == pytest.approx(400e-6)

    @pytest.mark.parametrize("sel", ["b2.ic", "b2.rn", "b2.cap", "lloop.l", "rloop.r", "k1.m"])
    def test_nan_field_fails_when_the_device_is_built(self, sel):
        from importlib import resources

        soma2 = parse_netlist(resources.files("fluxon.data").joinpath("netlists/soma2.cir").read_text())
        with pytest.raises(NetlistError, match=rf"^\w+ {sel.split('.')[0]}: "):
            soma2.with_param(sel, math.nan)

    def test_bad_selector(self, nl):
        with pytest.raises(KeyError):
            nl.resolve_selector("zz.ic")
        with pytest.raises(KeyError):
            nl.resolve_selector("b1.bogus")
        with pytest.raises(KeyError):
            nl.resolve_selector("b1")


def test_waveform_shapes():
    p = Pulse(delay=10.0, rise=2.0, width=5.0, fall=2.0, amplitude=1.0)
    assert p(9.0) == 0.0
    assert p(11.0) == pytest.approx(0.5)
    assert p(14.0) == 1.0
    assert p(18.0) == pytest.approx(0.5)
    assert p(30.0) == 0.0

    t = PulseTrain(start=100.0, period=25.0, count=3, width=4.0, amplitude=2.0)
    assert t(99.0) == 0.0
    assert t(102.0) == 2.0  # peak of the triangle
    assert t(104.5) == 0.0
    assert t(127.0) == 2.0
    assert t(200.0) == 0.0
    # integral of one triangle is amp*width/2
    import numpy as np

    ts = np.linspace(99.0, 105.0, 5001)
    area = np.trapezoid([t(x) for x in ts], ts)
    assert area == pytest.approx(4.0, rel=1e-3)


# --- array-valued waveforms against the scalar formulas they replaced ------


def reference_waveform(wf, t):
    """The scalar waveform formulas, one time at a time."""
    if isinstance(wf, Dc):
        return wf.value
    if isinstance(wf, Pulse):
        t = t - wf.delay
        if t <= 0.0:
            return 0.0
        if t < wf.rise:
            return wf.amplitude * t / wf.rise
        t -= wf.rise
        if t < wf.width:
            return wf.amplitude
        t -= wf.width
        if t < wf.fall:
            return wf.amplitude * (1.0 - t / wf.fall)
        return 0.0
    if isinstance(wf, PulseTrain):
        t = t - wf.start
        if t < 0.0 or wf.count == 0:
            return 0.0
        k = min(int(t // wf.period), wf.count - 1)
        u = t - k * wf.period
        half = wf.width / 2.0
        if u < half:
            return wf.amplitude * u / half
        if u < wf.width:
            return wf.amplitude * (1.0 - (u - half) / half)
        return 0.0
    if t < wf.delay:
        return wf.offset
    return wf.offset + wf.amplitude * math.sin(2.0 * math.pi * (t - wf.delay) / wf.period)


def segment_edges(wf):
    """Times on the boundaries between a waveform's pieces."""
    if isinstance(wf, Pulse):
        edges = [wf.delay]
        for piece in (wf.rise, wf.width, wf.fall):
            edges.append(edges[-1] + piece)
        return edges
    if isinstance(wf, PulseTrain):
        return [wf.start + k * wf.period + off
                for k in range(wf.count + 1) for off in (0.0, wf.width / 2.0, wf.width)]
    if isinstance(wf, Sine):
        return [wf.delay, wf.delay + wf.period / 2.0]
    return []


_span = st.floats(0.0, 50.0) | st.sampled_from([0.0, 0.05, 1.0, 2.5])
_amp = st.floats(-2e-3, 2e-3, allow_subnormal=False)
waveforms = st.one_of(
    st.builds(Dc, _amp),
    st.builds(Pulse, _span, _span, _span, _span, _amp),
    st.builds(lambda start, width, gap, count, amp: PulseTrain(start, width + gap, count, width, amp),
              _span, _span.filter(lambda w: w / 2.0 > 0.0 or w == 0.0),  # PulseTrain rejects the rest
              st.floats(0.05, 30.0), st.integers(0, 4), _amp),
    st.builds(Sine, _amp, _amp, st.floats(0.5, 100.0), _span),
)


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None)
@given(wf=waveforms, extra=st.lists(st.floats(-10.0, 300.0), max_size=20), step=st.sampled_from([0.05, 0.1]))
def test_array_waveform_matches_scalar_formula(wf, extra, step):
    grid = np.arange(int(120 / step) + 1) * step  # a stretch of the solver's time grid
    times = np.concatenate([grid, segment_edges(wf), extra])
    got = wf(times)
    want = np.array([reference_waveform(wf, t) for t in times.tolist()])
    assert got.shape == times.shape and got.dtype == float
    if isinstance(wf, Sine):  # np.sin against math.sin: allow one unit in the last place
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
    else:
        assert np.array_equal(got, want)
    # one time at a time gives the same values
    assert [wf(t) for t in times[::97].tolist()] == got[::97].tolist()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edge", ["rise", "fall"])
def test_subnormal_pulse_edge_raises_no_warning(edge):
    # the unselected ramp branch divides by the edge and overflows
    fields = dict(delay=1.0, rise=1.0, width=1.0, fall=1.0, amplitude=1e-3) | {edge: 5e-324}
    wf = Pulse(**fields)
    times = np.array([0.0, 1.0, 1.5, 2.5, 3.5, 9.0])
    assert wf(times).tolist() == [reference_waveform(wf, t) for t in times.tolist()]


# --- parser fuzz and selector round trips ---------------------------------

_LINES = [
    "b1 1 0 ic=100u rn=2 cap=1p", "b2 2 1 ic=50u", "l1 1 2 2p ic=1u", "l2 2 0 3p", "r1 2 0 1",
    "k1 l1 l2 1p", "i1 0 1 dc 1m", "i2 0 1 pulse 1 2 3 4 1m", "i3 0 2 ptrain 0 10 2 1 1m",
    "v1 1 0 sin 0 1m 10 0", ".tran 0.05 10", ".print v(1) phi(b1)", ".end", "* comment",
]
_TOKENS = [
    "0", "1", "l1", "l9", "b1", "x1", "dc", "pulse", "-1", "1e999", "5e-324", "100u", "abc",
    "ic=0", "ic=-1", "ic=1e999", "rn=0", "cap=-1p", "ic=", "q=1", "v()", "*", ".op",
]


@st.composite
def _mutated_netlists(draw):
    """Lines of a valid netlist, each with a few tokens replaced, inserted or dropped."""
    lines = []
    for toks in draw(st.lists(st.sampled_from(_LINES).map(str.split), max_size=6)):
        for _ in range(draw(st.integers(0, 3))):
            k = draw(st.integers(0, len(toks)))
            new = draw(st.sampled_from(_TOKENS) | st.text(max_size=3))
            toks[k:k + draw(st.integers(0, 1))] = draw(st.sampled_from([[new], []]))
        lines.append(" ".join(toks))
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(_mutated_netlists())
def test_random_tokens_raise_only_netlist_errors_with_a_line(text):
    try:
        parse_netlist(text)
    except NetlistError as exc:
        assert exc.lineno is not None and 1 <= exc.lineno <= len(text.splitlines()), exc
        assert str(exc).startswith(f"line {exc.lineno}: ")


@pytest.mark.parametrize(
    "text,line",
    [
        ("r1 1 0 1\nb1 1 0 ic=0", 2),  # would divide by ic for the default rn
        ("b1 1 0 ic=100u rn=0", 1),  # would divide by rn for the default cap
        ("b1 1 0 ic=100u rn=2 cap=-1p", 1),
        ("i1 0 1 pulse 1 -2 3 4 1m", 1),
        ("i1 0 1 ptrain 0 10 2.5 1 1m", 1),
        ("v1 1 0 sin 0 1m 0", 1),
        ("l1 1 0 2p\nk1 l1 l9 1p\nr1 1 0 1", 2),  # checked once every line is read
        ("l1 1 0 2p\nl2 2 0 2p\nr1 2 0 1\nk1 l1 l2 5p", 4),
    ],
)
def test_device_checks_name_their_line(text, line):
    with pytest.raises(NetlistError, match=f"^line {line}: ") as exc:
        parse_netlist(text)
    assert exc.value.lineno == line


_value = st.floats(1e-3, 1e3).map(lambda x: f"{x:.4g}")


@st.composite
def valid_netlists(draw):
    """Text of a random valid netlist: a chain of junctions, inductors and
    resistors, a coupled inductor pair, and one source of each waveform."""
    lines = []
    n = draw(st.integers(1, 4))
    for k in range(1, n + 1):
        lines.append(f"b{k} {k} 0 ic={draw(_value)}u rn={draw(_value)} cap={draw(_value)}f")
        lines.append(f"l{k} {k} {k + 1} {draw(_value)}p ic={draw(_value)}u")
        lines.append(f"r{k} {k + 1} 0 {draw(_value)}")
    lines.append(f"k1 l1 l{n} {draw(st.floats(0.0, 0.9)):.3f}f" if n > 1 else "r0 1 0 5")
    lines += [
        f"i1 0 1 dc {draw(_value)}u",
        f"i2 0 {n} pulse 5 {draw(_value)} 3 2 {draw(_value)}u",
        f"i3 0 {n + 1} ptrain 10 20 {draw(st.integers(0, 4))} 5 {draw(_value)}u",
        f"v1 {n + 1} 0 sin 0 {draw(_value)}u 50",
        ".tran 0.05 100",
    ]
    return "\n".join(draw(st.permutations(lines)))


_FIELDS = {"b": ("ic", "rn", "cap"), "l": ("l", "ic"), "r": ("r",), "k": ("m",),
           "i": ("amp", "dc"), "v": ("amp",)}


@settings(max_examples=25, deadline=None)
@given(valid_netlists(), st.floats(0.5, 0.99))
def test_valid_netlists_round_trip_through_selectors(text, factor):
    nl = parse_netlist(text)
    assert nl == parse_netlist(text)
    for d in nl.devices:
        for sel in (f"{d.name}.{fld}" for fld in _FIELDS[d.name[0]]):
            try:
                dev, _, nominal = nl.resolve_selector(sel)
            except KeyError:  # dc is a field of dc sources only, amp of the others
                continue
            changed = nl.with_param(sel, nominal * factor)
            assert changed.resolve_selector(sel)[2] == nominal * factor
            assert [x for x in changed.devices if x is not changed.device(dev.name)] == [
                x for x in nl.devices if x is not dev
            ]
            assert nl.resolve_selector(sel)[2] == nominal  # the original is untouched
            assert changed.with_param(sel, nominal) == nl
