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
from enum import Enum

from .core import PHI0

DEFAULT_COOLING_W_PER_W = 400.0
AQFP_POWER_DIVISOR = 10.0  # adiabatic switching's saving over RSFQ


class Technology(str, Enum):
    RSFQ = "RSFQ"
    ERSFQ = "eRSFQ"
    AQFP = "AQFP"


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
        return PowerInputs(
            name=doc["name"],
            n_switching_cells=int(doc["n_cells"]),
            ic=float(doc["ic_a"]),
            clock=float(doc["clock_hz"]),
            static_on_chip=float(doc["static_on_chip_w"]),
            cooling_overhead=float(doc.get("cooling", DEFAULT_COOLING_W_PER_W)),
            sops_rated=float(doc.get("sops_rated", 0.0)),
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
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def total_power(inputs: PowerInputs) -> PowerReport:
    """Full report: on-chip = dynamic + static, total = on-chip * cooling."""
    e = energy_per_pulse(inputs.ic)
    dyn = dynamic_power(inputs.n_switching_cells, inputs.ic, inputs.clock)
    on_chip = dyn + inputs.static_on_chip
    total = on_chip * inputs.cooling_overhead
    sops = inputs.sops_rated
    return PowerReport(
        name=inputs.name,
        energy_per_pulse_j=e,
        dynamic_w=dyn,
        static_on_chip_w=inputs.static_on_chip,
        on_chip_w=on_chip,
        total_w=total,
        sops=sops,
        sops_per_watt=sops / total if total > 0 else 0.0,
        sops_worst_case=inputs.n_switching_cells * inputs.clock,
    )


def scale_projection(
    cores: int,
    neurons_per_core: int,
    per_core_power_w: float,
    per_core_sops: float,
    technology: Technology | str = Technology.RSFQ,
    *,
    per_core_static_w: float = 0.0,
    cooling_overhead: float = DEFAULT_COOLING_W_PER_W,
) -> PowerReport:
    """Linear multi-core projection with technology efficiency factors.

    SOPS and on-chip power scale linearly with the core count. The
    energy-efficient bias variant (eRSFQ) has no static power, and the
    adiabatic variant (AQFP) also divides total power by
    AQFP_POWER_DIVISOR.
    """
    if cores < 1 or neurons_per_core < 1:
        raise ValueError("counts must be positive")
    tech = Technology(technology)
    static = cores * per_core_static_w
    dyn = cores * (per_core_power_w - per_core_static_w)
    if tech in (Technology.ERSFQ, Technology.AQFP):
        static = 0.0
    on_chip = dyn + static
    total = on_chip * cooling_overhead
    if tech is Technology.AQFP:
        total /= AQFP_POWER_DIVISOR
    sops = cores * per_core_sops
    return PowerReport(
        name=f"{cores}x{neurons_per_core}-{tech.value}",
        energy_per_pulse_j=0.0,
        dynamic_w=dyn,
        static_on_chip_w=static,
        on_chip_w=on_chip,
        total_w=total,
        sops=sops,
        sops_per_watt=sops / total if total > 0 else 0.0,
    )
