import math
import re
from pathlib import Path

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
    VoltageSource,
    critical_damping_cap,
    default_rn,
    parse_netlist,
    parse_value,
)
from fluxon.circuit import netlist
from fluxon.circuit.netlist import parse_time_ps
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
            ("1meg", 1e6),  # SPICE's mega, read before milli
            ("3MEG", 3e6),
            ("2.2megohm", 2.2e6),
            ("2mohm", 2e-3),
            ("1g", 1e9),
            ("1t", 1e12),
            ("4.7GHz", 4.7e9),
            ("5mil", 127e-6),  # SPICE's thousandth of an inch, read before milli
            ("2MIL", 50.8e-6),
            ("1mils", 25.4e-6),
        ],
    )
    def test_suffixes(self, token, value):
        assert parse_value(token) == pytest.approx(value, rel=1e-12)

    def test_garbage(self):
        with pytest.raises(NetlistError):
            parse_value("abc")

    def test_atto(self):
        # SPICE reads `a` as atto; the suffix is matched before a unit, so `100ua` stays micro
        assert parse_value("2a") == 2e-18
        assert parse_value("100ua") == parse_value("100u")
        assert parse_time_ps("3a") == pytest.approx(3e-6, rel=1e-12)

    def test_both_readers_name_their_kind(self):
        with pytest.raises(NetlistError, match="^line 4: bad numeric value '1.2.3'"):
            parse_value("1.2.3", 4)
        with pytest.raises(NetlistError, match="^line 5: bad time value '1.2.3'"):
            parse_time_ps("1.2.3", 5)


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

    def test_given_cap_skips_the_default(self):
        # the default cap of these ic and rn is out of range, and is not computed
        nl = parse_netlist("b1 1 0 ic=1e-200 rn=1e-100 cap=1p")
        (j,) = [d for d in nl.devices if isinstance(d, Junction)]
        assert (j.ic, j.rn, j.cap) == (1e-200, 1e-100, 1e-12)

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

    def test_spice_suffixes_scale_element_values(self):
        nl = parse_netlist("r1 1 0 1meg\nr2 1 0 2g\nr3 1 0 3t\nr4 1 0 4m")
        assert [nl.device(f"r{k}").r for k in range(1, 5)] == [1e6, 2e9, 3e12, 4e-3]

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
        with pytest.raises(NetlistError, match="^line 2: mutual k1 couples inductor 'l1' to itself$"):
            parse_netlist("l1 1 0 10p\nk1 l1 l1 0.9p")

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
        nl = parse_netlist("b1 1 0 ic=100u\n.print v(1) phi(b1) v(0)")
        assert nl.prints == (("v", "1"), ("phi", "b1"), ("v", "0"))
        with pytest.raises(NetlistError):
            parse_netlist(".print vee(1)")
        with pytest.raises(NetlistError, match="^print request for unknown node '2'$"):
            Netlist((Resistor("r1", "1", "0", 1.0),), prints=(("v", "2"),))


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

    @pytest.mark.parametrize("sel,fld", [("b1.name", "name"), ("b1.np_", "np_"), ("l1.nm", "nm"),
                                         ("b1.__class__", "__class__")])
    def test_non_numeric_field_is_not_a_selector(self, nl, sel, fld):
        dev = sel.split(".")[0]
        with pytest.raises(KeyError, match=f"field '{fld}' of device {dev} is not a number"):
            nl.resolve_selector(sel)
        with pytest.raises(KeyError):
            nl.with_param(sel, 1.0)


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
    "sin", "ptrain", "2.5", "3p", "1meg", "rn=1", "cap=2p", "ic=1u", "5mil", "a,b", 'b"1',
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
        ("r1 1 0 1\nb1 1 0 ic=1e-200 rn=1e-100", 2),  # 2 pi ic rn^2 underflows: the default cap is inf
        ("b1 1 0 ic=1e-320", 1),  # the default rn overflows to inf
        ("i1 0 1 pulse 1 -2 3 4 1m", 1),
        ("i1 0 1 ptrain 0 10 2.5 1 1m", 1),
        ("v1 1 0 sin 0 1m 0", 1),
        ("l1 1 0 2p\nk1 l1 l9 1p\nr1 1 0 1", 2),  # checked once every line is read
        ("l1 1 0 2p\nl2 2 0 2p\nr1 2 0 1\nk1 l1 l2 5p", 4),
        ("l1 1 0 2p\nk1 l1 l1 0.9p\nr1 1 0 1", 2),  # would stamp -fac*m twice on l1's own diagonal
        ("r1 1 0 1\n.print v(1) v(99)", 2),
        (".print phi(r1)\nr1 1 0 1", 1),  # a print target is checked once every line is read
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

    def p():  # a time in ps, bare or in seconds
        return draw(st.sampled_from(["", "p"]))

    lines += [
        f"i1 0 1 dc {draw(_value)}u",
        f"i2 0 {n} pulse 5{p()} {draw(_value)}{p()} 3{p()} 2{p()} {draw(_value)}u",
        f"i3 0 {n + 1} ptrain 10{p()} 20{p()} {draw(st.integers(0, 4))} 5{p()} {draw(_value)}u",
        f"v1 {n + 1} 0 sin 0 {draw(_value)}u 50{p()}{draw(st.sampled_from(['', ' 7', ' 7p']))}",
        f".tran 0.05{p()} 100{p()}",
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


# --- the dialect table against the hand-written branches it replaced ------
# The reference is the parser as it was before its table: one branch per
# device letter and per waveform shape, each with its own arity check and
# field conversions. It reads numbers through the module's own parse_value
# and parse_time_ps, so both parsers share the number grammar. It also
# takes the two rules the dialect gained after the table: a name holds no
# ',' or '"', and a key= may not repeat. The fuzz draws both, so the two
# parsers are compared on them rather than the draws being filtered.


def reference_parse_source(kind, name, toks, lineno):
    if len(toks) < 3:
        raise NetlistError(f"source {name}: missing nodes/waveform", lineno)
    np_, nm = toks[0], toks[1]
    shape, args = toks[2], toks[3:]
    if shape == "dc":
        if len(args) != 1:
            raise NetlistError(f"source {name}: dc takes one value", lineno)
        wf = Dc(parse_value(args[0], lineno))
    elif shape == "pulse":
        if len(args) != 5:
            raise NetlistError(f"source {name}: pulse takes 5 values", lineno)
        wf = Pulse(*(parse_time_ps(a, lineno) for a in args[:4]), parse_value(args[4], lineno))
    elif shape == "ptrain":
        if len(args) != 5 or not args[2].isdecimal():
            raise NetlistError(f"source {name}: ptrain takes 5 values, the third a count", lineno)
        wf = PulseTrain(parse_time_ps(args[0], lineno), parse_time_ps(args[1], lineno), int(args[2]),
                        parse_time_ps(args[3], lineno), parse_value(args[4], lineno))
    elif shape == "sin":
        if len(args) not in (3, 4):
            raise NetlistError(f"source {name}: sin takes 3 or 4 values", lineno)
        wf = Sine(parse_value(args[0], lineno), parse_value(args[1], lineno), parse_time_ps(args[2], lineno),
                  parse_time_ps(args[3], lineno) if len(args) == 4 else 0.0)
    else:
        raise NetlistError(f"source {name}: unknown waveform {shape!r}", lineno)
    return (CurrentSource if kind == "i" else VoltageSource)(name, np_, nm, wf)


def reference_keyword_args(toks, lineno):
    out = {}
    for tok in toks:
        if "=" not in tok:
            raise NetlistError(f"expected key=value, got {tok!r}", lineno)
        key, val = tok.split("=", 1)
        if key in out:
            raise NetlistError(f"repeated {key}=", lineno)
        out[key] = parse_value(val, lineno)
    return out


def reference_parse_device(head, body, lineno):
    letter, name = head[0], head
    for tok in (head, *body[:2]):  # the device name and its two nodes or inductors
        if "," in tok or '"' in tok:
            raise NetlistError(f"name {tok!r} holds ',' or '\"'", lineno)
    if letter == "b":
        if len(body) < 3:
            raise NetlistError(f"junction {name}: missing fields", lineno)
        kw = reference_keyword_args(body[2:], lineno)
        if set(kw) - {"ic", "rn", "cap"} or "ic" not in kw:
            raise NetlistError(f"junction {name}: needs ic=, allows rn=/cap=", lineno)
        ic = kw["ic"]
        if not (ic > 0.0 and kw.get("rn", 1.0) > 0.0):
            raise NetlistError(f"junction {name}: need ic>0, rn>0, cap>=0", lineno)
        rn = kw["rn"] if "rn" in kw else default_rn(ic)
        cap = kw["cap"] if "cap" in kw else critical_damping_cap(ic, rn)
        for key, value in (("rn", rn), ("cap", cap)):
            if key not in kw and not 0.0 < value < math.inf:
                raise NetlistError(f"junction {name}: the default {key} is {value:g}", lineno)
        return Junction(name, body[0], body[1], ic, rn, cap)
    if letter == "l":
        if len(body) < 3:
            raise NetlistError(f"inductor {name}: missing fields", lineno)
        extra = reference_keyword_args(body[3:], lineno) if len(body) > 3 else {}
        if set(extra) - {"ic"}:
            raise NetlistError(f"inductor {name}: only ic= allowed", lineno)
        return Inductor(name, body[0], body[1], parse_value(body[2], lineno), extra.get("ic", 0.0))
    if letter == "r":
        if len(body) != 3:
            raise NetlistError(f"resistor {name}: takes n+ n- value", lineno)
        return Resistor(name, body[0], body[1], parse_value(body[2], lineno))
    if letter == "k":
        if len(body) != 3:
            raise NetlistError(f"mutual {name}: takes La Lb M", lineno)
        return Mutual(name, body[0], body[1], parse_value(body[2], lineno))
    if letter in ("i", "v"):
        return reference_parse_source(letter, name, body, lineno)
    raise NetlistError(f"unknown device letter {letter!r} in {name!r}", lineno)


def reference_parse_netlist(text):
    devices, lines, prints = [], {}, []
    tran_step = tran_stop = tran_line = None
    title = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("*", 1)[0].strip().lower()
        if not line:
            if raw.strip().startswith("*") and lineno == 1:
                title = raw.strip().lstrip("*").strip()
            continue
        toks = line.split()
        head = toks[0]
        if head.startswith("."):
            if head == ".tran":
                if len(toks) != 3:
                    raise NetlistError(".tran takes <step> <stop>", lineno)
                if tran_line is not None:
                    raise NetlistError(f"repeated .tran; the first is on line {tran_line}", lineno)
                tran_line = lineno
                tran_step = parse_time_ps(toks[1], lineno)
                tran_stop = parse_time_ps(toks[2], lineno)
                if not (0.0 < tran_step < math.inf and 0.0 < tran_stop < math.inf):
                    raise NetlistError(".tran step and stop must be positive and finite", lineno)
            elif head == ".print":
                for req in toks[1:]:
                    m = re.match(r"^(v|phi)\((.+)\)$", req)
                    if not m:
                        raise NetlistError(f"bad print request {req!r}", lineno)
                    prints.append((m.group(1), m.group(2)))
                    lines.setdefault(prints[-1], lineno)
            elif head == ".end":
                break
            else:
                raise NetlistError(f"unknown directive {head!r}", lineno)
            continue
        try:
            device = reference_parse_device(head, toks[1:], lineno)
        except NetlistError as exc:
            raise (exc if exc.lineno else NetlistError(str(exc), lineno)) from None
        lines[device.name] = lineno
        devices.append(device)
    try:
        return Netlist(tuple(devices), tran_step, tran_stop, tuple(prints), title)
    except NetlistError as exc:
        raise NetlistError(str(exc), lines[exc.device]) from None


@settings(max_examples=400, deadline=None)
@given(_mutated_netlists() | valid_netlists())
def test_table_parses_as_the_reference_branches(text):
    try:
        want = reference_parse_netlist(text)
    except NetlistError as exc:
        with pytest.raises(NetlistError) as got:
            parse_netlist(text)
        assert got.value.lineno == exc.lineno, (str(got.value), str(exc))
    else:
        got = parse_netlist(text)
        assert got == want and repr(got) == repr(want)  # repr tells a count of 3 from 3.0


@pytest.mark.parametrize(
    "text,message",
    [
        ("r2 1 0", "r2: takes 3 fields, got 2"),  # too few for a device
        ("r2 1 0 1 2", "r2: takes 3 fields, got 4"),  # too many for a device
        ("r2 1 0 1 ic=1", "r2: takes 3 fields, got 4"),  # a resistor takes no key= field
        ("i1 0 1", "i1: takes 3 fields, got 2"),  # a source without its waveform
        ("i1 0 1 pulse 1 2 3 4", "i1 pulse: takes 5 fields, got 4"),  # too few for a shape
        ("i1 0 1 sin 0 1m 10 0 5", "i1 sin: takes 3 or 4 fields, got 5"),  # too many for a shape
        ("i1 0 1 dc", "i1 dc: takes 1 field, got 0"),
        ("i1 0 1 dc 1m ic=1", "i1 dc: takes 1 field, got 2"),  # a waveform takes no key= field
        ("i1 0 1 ptrain 0 10 2e0 1 1m", "bad count '2e0'"),
        ("i1 0 1 ptrain 0 10 -1 1 1m", "bad count '-1'"),
        ("i1 0 1 ptrain 0 10 1k 1 1m", "bad count '1k'"),
        ("l1 1 0 2p rn=1", "l1: expected ic=<value>, got 'rn=1'"),  # a key= the device does not allow
        ("b1 1 0 ic=100u q=1", "b1: expected ic/rn/cap=<value>, got 'q=1'"),
        ("b1 1 0 100u", "b1: expected ic/rn/cap=<value>, got '100u'"),
        ("b1 1 0 rn=2", "junction b1: need ic>0"),  # ic= is required
        ("b1 1", "b1: takes 2 fields, got 1"),
        ("i1 0 1 square 1 2", "i1: unknown waveform 'square'"),
        ("i1 0 1 b 1 2", "i1: unknown waveform 'b'"),  # a device letter is no shape
        ("q1 1 0 5", "unknown device letter 'q' in 'q1'"),
        (".tran 0.1", ".tran: takes 2 fields, got 1"),
        ("b1 1 0 ic=100u ic=50u", "b1: ic= is given twice"),  # not a 50 uA junction
        ("l1 1 0 2p ic=1u ic=1u", "l1: ic= is given twice"),
        ("r2,x 1 0 1", "name 'r2,x' may not hold ',' or '\"'"),  # a waveform header or event-log cell
        ("r2 1 a,b 1", "name 'a,b' may not hold"),
        ('b1 a"b 0 ic=100u', "name 'a\"b' may not hold"),
        ("k1 r1 l,9 1p", "name 'l,9' may not hold"),
    ],
)
def test_table_errors_name_their_line(text, message):
    with pytest.raises(NetlistError, match=f"^line 2: {re.escape(message)}") as exc:
        parse_netlist(f"r1 1 0 1\n{text}\nl9 1 0 1p")
    assert exc.value.lineno == 2


def test_comma_names_fail_before_any_artifact():
    # this netlist ran, and its waveform.csv header `time_ps,v(a,b),phi(b1,x)` read as 5 columns
    text = "i1 0 a,b pulse 10 5 10 5 300u\nr1 a,b 0 2\nb1,x a,b 0 ic=100u\n.tran 0.1 60\n.print v(a,b) phi(b1,x)"
    with pytest.raises(NetlistError, match="^line 1: name 'a,b' may not hold") as exc:
        parse_netlist(text)
    assert exc.value.lineno == 1


def test_optional_fields_may_be_omitted():
    nl = parse_netlist("v1 1 0 sin 0 1m 10\nv2 2 0 sin 0 1m 10 2.5\nl1 1 0 2p\nr1 2 0 1")
    assert nl.device("v1").waveform == Sine(0.0, 1e-3, 10.0, 0.0)
    assert nl.device("v2").waveform == Sine(0.0, 1e-3, 10.0, 2.5)
    assert nl.device("l1").ic == 0.0


def test_readme_dialect_names_the_table():
    """The README's dialect block documents exactly the parser's device letters, shapes and suffixes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Netlist dialect", 1)[1].split("```")[1]
    letters, shapes = set(), set()
    for line in block.splitlines():
        m = re.match(r"^([A-Z/]+)<name>\s+(.*)$", line)
        if m:
            kinds = set(m.group(1).lower().split("/"))
            letters |= kinds
            if kinds <= {"i", "v"}:
                shapes.add(m.group(2).split()[2])
    assert letters == set(netlist._DEVICES)
    assert shapes == set(netlist._WAVEFORMS)
    suffixes = re.search(r"<number>\[([a-z|]+)\]", block).group(1).split("|")
    assert set(suffixes) == set(netlist._SUFFIX) - {""}
