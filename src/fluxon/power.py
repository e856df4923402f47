"""Closed-form switching-energy, power, SOPS and scaling calculator.

A switching event moves one flux quantum across a junction, costing
E = Ic * PHI0. Dynamic power assumes the worst case of every synapse
unit cell switching once per clock; static bias power is a declared
input per network (per-cell bias budgets are not modeled), and the
wall-plug total applies a 4.2 K cooling overhead multiplier.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

from .core import PHI0, json_text

DEFAULT_COOLING_W_PER_W = 400.0
AQFP_POWER_DIVISOR = 10.0  # adiabatic switching's saving over RSFQ

# Per projection technology: (keeps per-core static power, wall-plug divisor). eRSFQ's
# energy-efficient bias and AQFP's adiabatic switching draw no static power; AQFP also divides.
TECHNOLOGIES = {"RSFQ": (True, 1.0), "eRSFQ": (False, 1.0), "AQFP": (False, AQFP_POWER_DIVISOR)}


def energy_per_pulse(ic: float) -> float:
    """Switching energy in joules for a junction with critical current ic."""
    if ic < 0.0:
        raise ValueError("critical current must be non-negative")
    return ic * PHI0


def dynamic_power(n_cells: int, ic: float, clock: float) -> float:
    """Worst-case dynamic dissipation: every cell switches every clock."""
    return n_cells * energy_per_pulse(ic) * clock


@dataclass(frozen=True)
class PowerInputs:
    name: str
    n_switching_cells: int
    ic: float
    clock: float
    static_on_chip: float
    cooling_overhead: float = DEFAULT_COOLING_W_PER_W
    sops_rated: float = 0.0

    def __post_init__(self):
        if min(self.n_switching_cells, self.ic, self.clock, self.static_on_chip) < 0:
            raise ValueError("power inputs must be non-negative")
        if self.cooling_overhead < 1.0:
            raise ValueError("cooling overhead must be >= 1 W/W")

    @staticmethod
    def from_json(text: str) -> "PowerInputs":
        doc = json.loads(text)

        def number(key: str, default: float | None = None) -> float:
            val = doc[key] if default is None else doc.get(key, default)
            if type(val) not in (int, float):  # a numeric string or a bool is no number
                raise ValueError(f"{key} must be a number, got {json.dumps(val)}")
            return float(val)

        n_cells = number("n_cells")
        if not n_cells.is_integer():
            raise ValueError(f"n_cells must be a whole number, got {doc['n_cells']}")
        return PowerInputs(
            name=doc["name"],
            n_switching_cells=int(n_cells),
            ic=number("ic_a"),
            clock=number("clock_hz"),
            static_on_chip=number("static_on_chip_w"),
            cooling_overhead=number("cooling", DEFAULT_COOLING_W_PER_W),
            sops_rated=number("sops_rated", 0.0),
        )


@dataclass(frozen=True)
class PowerReport:
    name: str
    energy_per_pulse_j: float
    dynamic_w: float
    static_on_chip_w: float
    on_chip_w: float
    total_w: float
    sops: float
    sops_per_watt: float
    sops_worst_case: float = 0.0

    def to_json(self) -> str:
        return json_text(asdict(self))


def _report(name: str, energy: float, dyn: float, static: float, cooling: float, sops: float,
            divisor: float = 1.0, worst_case: float = 0.0) -> PowerReport:
    """The power chain: on-chip = dynamic + static, total = on-chip * cooling / divisor, SOPS per total W."""
    on_chip = dyn + static
    total = on_chip * cooling / divisor
    spw = sops / total if total > 0 else 0.0
    return PowerReport(name, energy, dyn, static, on_chip, total, sops, spw, worst_case)


def total_power(inputs: PowerInputs) -> PowerReport:
    """Full report: on-chip = dynamic + static, total = on-chip * cooling."""
    n, ic, clock = inputs.n_switching_cells, inputs.ic, inputs.clock
    return _report(inputs.name, energy_per_pulse(ic), dynamic_power(n, ic, clock), inputs.static_on_chip,
                   inputs.cooling_overhead, inputs.sops_rated, worst_case=n * clock)


def scale_projection(
    cores: int,
    neurons_per_core: int,
    per_core_power_w: float,
    per_core_sops: float,
    technology: str = "RSFQ",
    *,
    per_core_static_w: float = 0.0,
    cooling_overhead: float = DEFAULT_COOLING_W_PER_W,
) -> PowerReport:
    """Linear multi-core projection with the efficiency factors TECHNOLOGIES gives `technology`.

    SOPS and on-chip power scale linearly with the core count.
    """
    if cores < 1 or neurons_per_core < 1:
        raise ValueError("counts must be positive")
    if technology not in TECHNOLOGIES:
        raise ValueError(f"unknown technology {technology!r}; known: {', '.join(TECHNOLOGIES)}")
    keeps_static, divisor = TECHNOLOGIES[technology]
    static = cores * per_core_static_w if keeps_static else 0.0
    return _report(f"{cores}x{neurons_per_core}-{technology}", 0.0, cores * (per_core_power_w - per_core_static_w),
                   static, cooling_overhead, cores * per_core_sops, divisor)
