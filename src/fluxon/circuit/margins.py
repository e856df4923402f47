"""Parameter margin scans: how far a device value can move before a
functional test breaks.

The margins are the connected interval around nominal where pass_test
holds, as fractional deviations low/high: pass_test holds at nominal,
at nominal*(1-low), at nominal*(1+high) and at every point probed
between them. The scan is capped at +-BOUND (90%) and ends once each
side's edge is known to `resolution`, which must be positive and finite.

Every parameter runs the same schedule. The first batch probes nominal
and the grid BOUND*k/9 (k = 1..9, the last point BOUND itself) on both
sides, 19 variants. Walking outward from nominal, a side's bracket runs
from its last passing point to its first failing one; a pass beyond the
first failure is an island and does not count. While a bracket is wider
than resolution, the next batch splits both sides' brackets into
min(9, ceil(width/resolution)) equal parts, a width within rounding of
n resolutions counting as n, and probes the points strictly inside, so
a resolution below float spacing ends the scan. The margin is the
bracket's passing end, and BOUND itself on a side that passes at every
grid point. A default soma2 scan (resolution 0.02) runs 23 or 27
transients in 2 batches.

pass_test sees a lean run (`run_transients(record=False,
ftol=PROBE_FTOL)`): its node voltages and the junction pulses it
stamped as it stepped, which detect_pulses_in reads, but no junction
phase, junction voltage or inductor current trace. A probe thus holds a
few print rows instead of every junction's waveforms, so batches can be
wide. It solves each step to PROBE_FTOL (1e-6 rad) rather than
NEWTON_FTOL (1e-11 rad): at the bundled step a step then takes one
Newton update instead of 1.2 to 1.5, and a pulse moves by at most the
bound derived beside PROBE_FTOL, 0.0083 ps on the bundled cells. A lean
run ends at the end of its first quiet chunk, by the rule the transient
module states, so its pulses are those of the full run at that
tolerance but node_voltage[name][-1] is the value at that quiet end,
not at the netlist's stop time. The scan logs its transients, batches and the
steps its transients took.

run_transients advances the variants of a junction ic or source
waveform scan in one lockstep group; a resistance, inductance or
junction capacitance puts each variant in a group of its own, so the
same batches run one transient at a time. A CircuitError in a batch
propagates and names its variant.
"""

from __future__ import annotations

import logging
import math
from typing import Callable

from .netlist import Netlist
from .transient import PROBE_FTOL, TraceSet, run_transients

log = logging.getLogger("fluxon.margins")

BOUND = 0.9  # the search cap on each side, as a fraction of nominal
PARTS = 9  # the most parts a batch splits a bracket into


class MarginError(ValueError):
    pass


def margin_nominal(netlist: Netlist, param: str) -> float:
    """Nominal value of `param`; a bad selector raises KeyError and a zero
    nominal, which has no relative margins, MarginError."""
    nominal = netlist.resolve_selector(param)[2]
    if nominal == 0:
        raise MarginError(f"{param} is 0 at nominal, so it has no relative margins")
    return nominal


def margin_scan(
    netlist: Netlist,
    param: str,
    pass_test: Callable[[TraceSet], bool],
    *,
    resolution: float = 0.01,
) -> tuple[float, float]:
    """Fractional (low, high) margins of `param` ('name.field') under pass_test.

    pass_test gets the TraceSet of a lean run (record=False).
    """
    if not 0.0 < resolution < math.inf:
        raise ValueError(f"resolution {resolution} must be positive and finite")
    nominal = margin_nominal(netlist, param)
    passed: dict[float, bool] = {}  # signed fraction -> pass_test result
    batches = steps = 0

    def bracket(sign: float) -> tuple[float, float | None]:
        """(last pass, first failure) walking outward; None when every point passes."""
        lo = 0.0
        for f in sorted(sign * f for f in passed if sign * f > 0.0):
            if not passed[sign * f]:
                return lo, f
            lo = f
        return lo, None

    grid = [BOUND * k / PARTS for k in range(1, PARTS)] + [BOUND]
    fractions = [0.0, *(-f for f in grid), *grid]
    while fractions:
        batches += 1
        variants = [netlist.with_param(param, nominal * (1.0 + f)) for f in fractions]
        for f, traces in zip(fractions, run_transients(variants, record=False, ftol=PROBE_FTOL)):
            passed[f] = bool(pass_test(traces))
            steps += len(traces.time_ps) - 1
        if not passed[0.0]:
            raise MarginError(f"nominal fails: pass_test is false at {param} = {nominal}")
        fractions = []
        for sign in (-1.0, 1.0):
            lo, hi = bracket(sign)
            if hi is None:
                continue
            # a width within rounding of n resolutions splits into n parts, not n + 1
            n = min(PARTS, math.ceil((hi - lo) / resolution - 1e-9))
            inner = (lo + (hi - lo) * k / n for k in range(1, n))
            fractions += [sign * f for f in inner if lo < f < hi]

    margins = bracket(-1.0)[0], bracket(+1.0)[0]
    log.info("margins: %s: %d transients in %d batches, %d steps", param, len(passed), batches, steps)
    return margins
