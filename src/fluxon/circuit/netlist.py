"""Netlist front-end: device records, waveforms, and the line parser.

Grammar (line oriented, case-insensitive, '*' starts a comment):

    B<name> n+ n- ic=<A> [rn=<ohm>] [cap=<F>]     Josephson junction
    L<name> n+ n- <H> [ic=<A>]                    inductor
    R<name> n+ n- <ohm>                           resistor
    K<name> L<a> L<b> <H>                         mutual inductance M
    I<name> n+ n- dc <A>                          current source
    I<name> n+ n- pulse <delay> <rise> <width> <fall> <amp>
    I<name> n+ n- ptrain <start> <period> <count> <width> <amp>
    I<name> n+ n- sin <offset> <amp> <period> [<delay>]
    V<name> ...                                   voltage source, same forms
    .tran <step> <stop>
    .print v(<node>) | phi(<junction>) ...

Element values carry SI unit suffixes f, p, n, u, m, k. Time-valued
fields (waveform delays/widths/periods and .tran settings) are read as
picoseconds when bare; a suffixed time such as `100p` is taken as
seconds and converted, so `100p` and `100` both mean 100 ps.

When `rn=` is omitted the junction's normal resistance derives from a
fixed IcRn product of 0.25 mV; when `cap=` is omitted
the shunt capacitance is set for critical damping (beta_c = 1).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from ..core import PHI0

DEFAULT_ICRN_PRODUCT = 0.25e-3  # V


class NetlistError(ValueError):
    def __init__(self, message: str, lineno: int | None = None, device: str | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno
        self.device = device  # the device at fault, for the parser to find its line


_NUMBER_RE = re.compile(
    r"^([-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?)([fpnumk]?)([a-z]*)$"
)
_SUFFIX = {"f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6, "m": 1e-3, "k": 1e3, "": 1.0}


def parse_value(token: str, lineno: int | None = None) -> float:
    """Parse `109u`, `30.12p`, `6.1`, or `0.4pF` into an SI float."""
    m = _NUMBER_RE.match(token.strip().lower())
    if not m:
        raise NetlistError(f"bad numeric value {token!r}", lineno)
    return float(m.group(1)) * _SUFFIX[m.group(2)]


def parse_time_ps(token: str, lineno: int | None = None) -> float:
    """Times are picoseconds when bare; suffixed values are seconds."""
    m = _NUMBER_RE.match(token.strip().lower())
    if not m:
        raise NetlistError(f"bad time value {token!r}", lineno)
    base = float(m.group(1))
    if m.group(2):
        return base * _SUFFIX[m.group(2)] * 1e12
    return base


# --- waveforms ------------------------------------------------------------
# Each waveform takes a time in ps, or a numpy array of times, and
# returns the value(s) at those times: a whole time grid is sampled in one
# call, with the same float expressions evaluated elementwise.


@dataclass(frozen=True)
class Dc:
    value: float

    def __call__(self, t_ps: float | np.ndarray) -> float | np.ndarray:
        return np.full(np.shape(t_ps), self.value, dtype=float)[()]


@dataclass(frozen=True)
class Pulse:
    delay: float
    rise: float
    width: float
    fall: float
    amplitude: float

    def __post_init__(self):
        if min(self.delay, self.rise, self.width, self.fall) < 0.0:
            raise NetlistError("pulse durations must be >= 0")

    def __call__(self, t_ps: float | np.ndarray) -> float | np.ndarray:
        t = np.asarray(t_ps, dtype=float) - self.delay
        t_top = t - self.rise
        t_fall = t_top - self.width
        amp = self.amplitude
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # zero or tiny edges
            return np.select(
                [t <= 0.0, t < self.rise, t_top < self.width, t_fall < self.fall],
                [0.0, amp * t / self.rise, amp, amp * (1.0 - t_fall / self.fall)],
                0.0,
            )[()]


@dataclass(frozen=True)
class PulseTrain:
    """`count` triangular pulses of base `width`, one every `period` ps."""

    start: float
    period: float
    count: int
    width: float
    amplitude: float

    def __post_init__(self):
        if min(self.start, self.period, self.width) < 0.0 or self.count < 0:
            raise NetlistError("pulse-train fields must be >= 0")
        if self.period <= self.width:
            raise NetlistError("pulse-train period must exceed the pulse width")
        if self.width / 2.0 == 0.0 < self.width:  # rise and fall each take half
            raise NetlistError("pulse-train width is too small to halve")

    def __call__(self, t_ps: float | np.ndarray) -> float | np.ndarray:
        t = np.asarray(t_ps, dtype=float) - self.start
        k = np.minimum(t // self.period, self.count - 1)  # the pulse t falls in
        u = t - k * self.period
        half = self.width / 2.0
        amp = self.amplitude
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # zero or tiny width
            return np.select(
                [(t < 0.0) | (self.count == 0), u < half, u < self.width],
                [0.0, amp * u / half, amp * (1.0 - (u - half) / half)],
                0.0,
            )[()]


@dataclass(frozen=True)
class Sine:
    offset: float
    amplitude: float
    period: float
    delay: float = 0.0

    def __post_init__(self):
        if self.period == 0.0:
            raise NetlistError("sine period must be nonzero")

    def __call__(self, t_ps: float | np.ndarray) -> float | np.ndarray:
        t = np.asarray(t_ps, dtype=float)
        wave = self.offset + self.amplitude * np.sin(2.0 * np.pi * (t - self.delay) / self.period)
        return np.where(t < self.delay, self.offset, wave)[()]


Waveform = Union[Dc, Pulse, PulseTrain, Sine]


# --- devices ---------------------------------------------------------------


@dataclass(frozen=True)
class Junction:
    name: str
    np_: str
    nm: str
    ic: float
    rn: float
    cap: float

    def __post_init__(self):
        if not (self.ic > 0.0 and self.rn > 0.0 and self.cap >= 0.0):
            raise NetlistError(f"junction {self.name}: need ic>0, rn>0, cap>=0")


@dataclass(frozen=True)
class Inductor:
    name: str
    np_: str
    nm: str
    l: float
    ic: float = 0.0

    def __post_init__(self):
        if not self.l > 0.0:
            raise NetlistError(f"inductor {self.name}: value must be > 0")


@dataclass(frozen=True)
class Resistor:
    name: str
    np_: str
    nm: str
    r: float

    def __post_init__(self):
        if not self.r > 0.0:
            raise NetlistError(f"resistor {self.name}: value must be > 0")


@dataclass(frozen=True)
class Mutual:
    name: str
    l1: str
    l2: str
    m: float


@dataclass(frozen=True)
class CurrentSource:
    name: str
    np_: str
    nm: str
    waveform: Waveform


@dataclass(frozen=True)
class VoltageSource:
    name: str
    np_: str
    nm: str
    waveform: Waveform


Device = Union[Junction, Inductor, Resistor, Mutual, CurrentSource, VoltageSource]


@dataclass(frozen=True)
class Netlist:
    devices: tuple[Device, ...]
    tran_step: float | None = None  # ps
    tran_stop: float | None = None  # ps
    prints: tuple[tuple[str, str], ...] = ()  # ("v", node) / ("phi", junction)
    title: str = ""

    def __post_init__(self):
        self.validate()

    @property
    def nodes(self) -> list[str]:
        seen: list[str] = []
        for d in self.devices:
            if isinstance(d, Mutual):
                continue
            for n in (d.np_, d.nm):
                if n != "0" and n not in seen:
                    seen.append(n)
        return seen

    def device(self, name: str) -> Device:
        name = name.lower()
        for d in self.devices:
            if d.name == name:
                return d
        raise KeyError(f"no device named {name!r}")

    def validate(self) -> None:
        seen: set[str] = set()
        for d in self.devices:
            if d.name in seen:
                raise NetlistError(f"duplicate device name {d.name!r}", device=d.name)
            seen.add(d.name)
        inductors = {d.name: d for d in self.devices if isinstance(d, Inductor)}
        for d in self.devices:
            if isinstance(d, Mutual):
                for ref in (d.l1, d.l2):
                    if ref not in inductors:
                        msg = f"mutual {d.name} references unknown inductor {ref!r}"
                        raise NetlistError(msg, device=d.name)
                bound = math.sqrt(inductors[d.l1].l * inductors[d.l2].l)
                if not abs(d.m) <= bound * (1.0 + 1e-12):
                    msg = f"mutual {d.name}: |M|={d.m} exceeds sqrt(L1*L2)={bound:.3e}"
                    raise NetlistError(msg, device=d.name)

    def resolve_selector(self, selector: str) -> tuple[Device, str, float]:
        """Split 'name.field' into (device, field, nominal value)."""
        try:
            name, fld = selector.lower().split(".")
        except ValueError:
            raise KeyError(f"selector {selector!r} must look like 'name.field'") from None
        dev = self.device(name)
        if isinstance(dev, (CurrentSource, VoltageSource)):
            wf = dev.waveform
            if fld in ("dc", "value") and isinstance(wf, Dc):
                return dev, "value", wf.value
            if fld in ("amp", "amplitude") and hasattr(wf, "amplitude"):
                return dev, "amplitude", wf.amplitude
            raise KeyError(f"source {name} has no field {fld!r}")
        if not hasattr(dev, fld):
            raise KeyError(f"device {name} has no field {fld!r}")
        return dev, fld, getattr(dev, fld)

    def with_param(self, selector: str, value: float) -> "Netlist":
        """Copy of the netlist with one device field replaced."""
        dev, fld, _ = self.resolve_selector(selector)
        if isinstance(dev, (CurrentSource, VoltageSource)):
            new_dev = replace(dev, waveform=replace(dev.waveform, **{fld: value}))
        else:
            new_dev = replace(dev, **{fld: value})
        devices = tuple(new_dev if d is dev else d for d in self.devices)
        return replace(self, devices=devices)


def _parse_source(kind: str, name: str, toks: list[str], lineno: int) -> Device:
    if len(toks) < 3:
        raise NetlistError(f"source {name}: missing nodes/waveform", lineno)
    np_, nm = toks[0], toks[1]
    shape, args = toks[2], toks[3:]
    if shape == "dc":
        if len(args) != 1:
            raise NetlistError(f"source {name}: dc takes one value", lineno)
        wf: Waveform = Dc(parse_value(args[0], lineno))
    elif shape == "pulse":
        if len(args) != 5:
            raise NetlistError(f"source {name}: pulse takes 5 values", lineno)
        wf = Pulse(
            *(parse_time_ps(a, lineno) for a in args[:4]),
            parse_value(args[4], lineno),
        )
    elif shape == "ptrain":
        if len(args) != 5 or not args[2].isdecimal():
            raise NetlistError(f"source {name}: ptrain takes 5 values, the third a count", lineno)
        wf = PulseTrain(
            parse_time_ps(args[0], lineno),
            parse_time_ps(args[1], lineno),
            int(args[2]),
            parse_time_ps(args[3], lineno),
            parse_value(args[4], lineno),
        )
    elif shape == "sin":
        if len(args) not in (3, 4):
            raise NetlistError(f"source {name}: sin takes 3 or 4 values", lineno)
        wf = Sine(
            parse_value(args[0], lineno),
            parse_value(args[1], lineno),
            parse_time_ps(args[2], lineno),
            parse_time_ps(args[3], lineno) if len(args) == 4 else 0.0,
        )
    else:
        raise NetlistError(f"source {name}: unknown waveform {shape!r}", lineno)
    cls = CurrentSource if kind == "i" else VoltageSource
    return cls(name, np_, nm, wf)


def _keyword_args(toks: list[str], lineno: int) -> dict[str, float]:
    out = {}
    for tok in toks:
        if "=" not in tok:
            raise NetlistError(f"expected key=value, got {tok!r}", lineno)
        key, val = tok.split("=", 1)
        out[key] = parse_value(val, lineno)
    return out


def default_rn(ic: float) -> float:
    return DEFAULT_ICRN_PRODUCT / ic


def critical_damping_cap(ic: float, rn: float) -> float:
    """Shunt capacitance giving beta_c = 1: C = PHI0 / (2 pi Ic Rn^2)."""
    return PHI0 / (2.0 * math.pi * ic * rn * rn)


def parse_netlist(text: str) -> Netlist:
    """Parse netlist text into a validated Netlist."""
    devices: list[Device] = []
    lines: dict[str, int] = {}  # device name -> its line
    tran_step = tran_stop = tran_line = None
    prints: list[tuple[str, str]] = []
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
            elif head == ".end":
                break
            else:
                raise NetlistError(f"unknown directive {head!r}", lineno)
            continue

        try:
            device = _parse_device(head, toks[1:], lineno)
        except NetlistError as exc:  # a device record's own check knows no line
            raise (exc if exc.lineno else NetlistError(str(exc), lineno)) from None
        lines[device.name] = lineno  # a duplicate name keeps its last line
        devices.append(device)

    try:
        return Netlist(tuple(devices), tran_step, tran_stop, tuple(prints), title)
    except NetlistError as exc:  # checks of the whole netlist
        raise NetlistError(str(exc), lines[exc.device]) from None


def _parse_device(head: str, body: list[str], lineno: int) -> Device:
    letter, name = head[0], head
    if letter == "b":
        if len(body) < 3:
            raise NetlistError(f"junction {name}: missing fields", lineno)
        kw = _keyword_args(body[2:], lineno)
        unknown = set(kw) - {"ic", "rn", "cap"}
        if unknown or "ic" not in kw:
            raise NetlistError(f"junction {name}: needs ic=, allows rn=/cap=", lineno)
        ic = kw["ic"]
        if not (ic > 0.0 and kw.get("rn", 1.0) > 0.0):  # the defaults divide by both
            raise NetlistError(f"junction {name}: need ic>0, rn>0, cap>=0", lineno)
        rn = kw.get("rn", default_rn(ic))
        cap = kw.get("cap", critical_damping_cap(ic, rn))
        return Junction(name, body[0], body[1], ic, rn, cap)
    if letter == "l":
        if len(body) < 3:
            raise NetlistError(f"inductor {name}: missing fields", lineno)
        extra = _keyword_args(body[3:], lineno) if len(body) > 3 else {}
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
        return _parse_source(letter, name, body, lineno)
    raise NetlistError(f"unknown device letter {letter!r} in {name!r}", lineno)
