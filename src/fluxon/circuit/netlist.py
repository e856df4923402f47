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

Element values carry the SPICE suffixes a, f, p, n, u, m, k, meg, g, t and
mil (meg, 1e6, and mil, 25.4e-6, are read before m); letters after one
name a unit and are ignored, so `0.4pF` is 0.4e-12 and `1megohm` 1e6.
Time-valued fields (waveform delays/widths/periods and .tran settings)
are read as picoseconds when bare; a suffixed time such as `100p` is
taken as seconds and converted, so `100p` and `100` both mean 100 ps.
A device or node name may not hold ',' or '"', since the CSV artifacts
write names unquoted, and a key= field may not repeat.

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
    def __init__(self, message: str, lineno: int | None = None, device: str | tuple | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno
        self.device = device  # the device or print request at fault, for the parser to find its line


_NUMBER_RE = re.compile(
    r"^([-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?)(meg|mil|[afpnumkgt]?)([a-z]*)$"
)
_SUFFIX = {"a": 1e-18, "f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6, "m": 1e-3, "k": 1e3, "meg": 1e6,
           "g": 1e9, "t": 1e12, "mil": 25.4e-6, "": 1.0}


def _number(token: str, what: str, lineno: int | None) -> tuple[float, str]:
    """The mantissa and SPICE suffix of a numeric token."""
    m = _NUMBER_RE.match(token.strip().lower())
    if not m:
        raise NetlistError(f"bad {what} value {token!r}", lineno)
    return float(m.group(1)), m.group(2)


def parse_value(token: str, lineno: int | None = None) -> float:
    """Parse `109u`, `30.12p`, `6.1`, or `0.4pF` into an SI float."""
    base, suffix = _number(token, "numeric", lineno)
    return base * _SUFFIX[suffix]


def parse_time_ps(token: str, lineno: int | None = None) -> float:
    """Times are picoseconds when bare; suffixed values are seconds."""
    base, suffix = _number(token, "time", lineno)
    return base * _SUFFIX[suffix] * 1e12 if suffix else base


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
                if d.l1 == d.l2:
                    raise NetlistError(f"mutual {d.name} couples inductor {d.l1!r} to itself", device=d.name)
                bound = math.sqrt(inductors[d.l1].l * inductors[d.l2].l)
                if not abs(d.m) <= bound * (1.0 + 1e-12):
                    msg = f"mutual {d.name}: |M|={d.m} exceeds sqrt(L1*L2)={bound:.3e}"
                    raise NetlistError(msg, device=d.name)
        if self.prints:
            nodes = {"0"} | {n for d in self.devices if not isinstance(d, Mutual) for n in (d.np_, d.nm)}
            junctions = {d.name for d in self.devices if isinstance(d, Junction)}
            for kind, name in self.prints:
                if name not in (nodes if kind == "v" else junctions):
                    what = "node" if kind == "v" else "junction"
                    raise NetlistError(f"print request for unknown {what} {name!r}", device=(kind, name))

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
        value = getattr(dev, fld)
        if not isinstance(value, (int, float)):
            raise KeyError(f"field {fld!r} of device {name} is not a number")
        return dev, fld, value

    def with_param(self, selector: str, value: float) -> "Netlist":
        """Copy of the netlist with one device field replaced."""
        dev, fld, _ = self.resolve_selector(selector)
        if isinstance(dev, (CurrentSource, VoltageSource)):
            new_dev = replace(dev, waveform=replace(dev.waveform, **{fld: value}))
        else:
            new_dev = replace(dev, **{fld: value})
        devices = tuple(new_dev if d is dev else d for d in self.devices)
        return replace(self, devices=devices)


def default_rn(ic: float) -> float:
    return DEFAULT_ICRN_PRODUCT / ic


def critical_damping_cap(ic: float, rn: float) -> float:
    """Shunt capacitance giving beta_c = 1: C = PHI0 / (2 pi Ic Rn^2), inf if that underflows."""
    denominator = 2.0 * math.pi * ic * rn * rn
    return PHI0 / denominator if denominator else math.inf


def _name(token: str, lineno: int) -> str:
    """A device or node name: it heads a waveform column or fills an event-log cell, unquoted."""
    if "," in token or '"' in token:
        raise NetlistError(f"name {token!r} may not hold ',' or '\"'", lineno)
    return token


def _count(token: str, lineno: int) -> int:
    if not token.isdecimal():
        raise NetlistError(f"bad count {token!r}", lineno)
    return int(token)


def _junction(name: str, np_: str, nm: str, **kw: float) -> Junction:
    """A junction from its key= fields; an omitted rn or cap is derived, and only then."""
    ic = kw.get("ic", 0.0)
    if not (ic > 0.0 and kw.get("rn", 1.0) > 0.0):  # the defaults divide by both
        raise NetlistError(f"junction {name}: need ic>0, rn>0, cap>=0")
    rn = kw["rn"] if "rn" in kw else default_rn(ic)
    cap = kw["cap"] if "cap" in kw else critical_damping_cap(ic, rn)
    for key, value in (("rn", rn), ("cap", cap)):
        if key not in kw and not 0.0 < value < math.inf:
            raise NetlistError(f"junction {name}: the default {key} is {value:g}, "
                               f"not finite and positive; give {key}=")
    return Junction(name, np_, nm, ic, rn, cap)


# The dialect, one row per device letter, waveform shape and .tran: the record
# a line builds, the kind of each positional field (n a node or device name,
# v a value, t a time, c a count, w a waveform: a shape, then that shape's
# own fields to the end of the line), how many trailing fields may be
# omitted, and the key= fields that may follow them.
_DEVICES = {
    "b": (_junction, "nn", 0, ("ic", "rn", "cap")),
    "l": (Inductor, "nnv", 0, ("ic",)),
    "r": (Resistor, "nnv", 0, ()),
    "k": (Mutual, "nnv", 0, ()),
    "i": (CurrentSource, "nnw", 0, ()),
    "v": (VoltageSource, "nnw", 0, ()),
}
_WAVEFORMS = {
    "dc": (Dc, "v", 0, ()),
    "pulse": (Pulse, "ttttv", 0, ()),
    "ptrain": (PulseTrain, "ttctv", 0, ()),
    "sin": (Sine, "vvtt", 1, ()),
}
_TRAN = (lambda step, stop: (step, stop), "tt", 0, ())
_FIELD = {"n": _name, "v": parse_value, "t": parse_time_ps, "c": _count,
          "w": lambda waveform, lineno: waveform}  # a waveform is read as its own row


def _read(row: tuple, label: str, toks: list[str], lineno: int, *head: str):
    """Build the record of a table row from the tokens of its fields, after `head`."""
    cls, kinds, optional, keys = row
    fields, tail = toks[:len(kinds)], toks[len(kinds):]
    if kinds[-1] == "w" and len(fields) == len(kinds):  # the shape's own fields end the line
        shape = fields[-1]
        if shape not in _WAVEFORMS:
            raise NetlistError(f"{label}: unknown waveform {shape!r}", lineno)
        fields[-1], tail = _read(_WAVEFORMS[shape], f"{label} {shape}", tail, lineno), []
    if len(fields) < len(kinds) - optional or (tail and not keys):
        count = f"{len(kinds) - optional} or {len(kinds)}" if optional else len(kinds)
        raise NetlistError(f"{label}: takes {count} field{'s' * (len(kinds) > 1)}, got {len(toks)}", lineno)
    kw = {}
    for tok in tail:
        key, eq, value = tok.partition("=")
        if not eq or key not in keys:
            raise NetlistError(f"{label}: expected {'/'.join(keys)}=<value>, got {tok!r}", lineno)
        if key in kw:
            raise NetlistError(f"{label}: {key}= is given twice", lineno)
        kw[key] = parse_value(value, lineno)
    return cls(*head, *[_FIELD[kind](tok, lineno) for kind, tok in zip(kinds, fields)], **kw)


def parse_netlist(text: str) -> Netlist:
    """Parse netlist text into a validated Netlist."""
    devices: list[Device] = []
    lines: dict = {}  # device name, or (kind, target) of a print request -> its line
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
                if tran_line is not None:
                    raise NetlistError(f"repeated .tran; the first is on line {tran_line}", lineno)
                tran_line = lineno
                tran_step, tran_stop = _read(_TRAN, head, toks[1:], lineno)
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

        if head[0] not in _DEVICES:
            raise NetlistError(f"unknown device letter {head[0]!r} in {head!r}", lineno)
        try:
            device = _read(_DEVICES[head[0]], head, toks[1:], lineno, _name(head, lineno))
        except NetlistError as exc:  # a device record's own check knows no line
            raise (exc if exc.lineno else NetlistError(str(exc), lineno)) from None
        lines[device.name] = lineno  # a duplicate name keeps its last line
        devices.append(device)

    try:
        return Netlist(tuple(devices), tran_step, tran_stop, tuple(prints), title)
    except NetlistError as exc:  # checks of the whole netlist
        raise NetlistError(str(exc), lines[exc.device]) from None
