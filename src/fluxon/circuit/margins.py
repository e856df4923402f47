"""Parameter margin scans: how far a device value can move before a
functional test breaks.

The scan searches the largest fractional deviations low/high such that
pass_test still holds at nominal*(1-low) and nominal*(1+high),
bisecting each side separately down to `resolution`, which must be
positive and finite, and capping the search at +-BOUND (90%).

pass_test sees a lean run (`run_transients(record=False)`): its node
voltages and its junction pulses, which detect_pulses_in returns as
detect_pulses would find them, but no junction phase, junction voltage
or inductor current trace. A probe thus holds a few print rows instead
of every junction's waveforms, so batches can be wide.

When the scanned field leaves the solver's linear operators alone
(junction ic, source waveforms), the variants share one lockstep group
and the probes run in batches that look LEVELS_PER_BATCH (3) bisection
levels ahead. The first batch probes nominal, both bounds and the first
three levels of both sides, 3 + 7 + 7 = 17 variants; each later batch
probes the next three levels of one side, its 7-point subtree. Replaying
the bisection over those results gives exactly the margins of probing
one point at a time. A default soma2 scan (resolution 0.02, six levels
on the side that does not reach the bound) runs 24 transients in 2
batches. Three levels is the depth that makes that scan two batches,
three levels in each, and a wide batch is cheap: a step's cost is
mostly numpy's per-call overhead, so 17 variants step in about 1.3
times the time of 3. A fourth level would grow the first batch to 33
variants and a later one to 15 without saving a batch.

Any other field (a resistance, an inductance, a junction capacitance)
would put every variant in a group of its own, so the scan probes one
point at a time. When a batch fails numerically, the scan probes the
point it needs now alone and the look-ahead points only once it
reaches them, so an error surfaces only where probing one point at a
time would meet it.
"""

from __future__ import annotations

import logging
import math
from typing import Callable

from .netlist import Netlist
from .transient import CircuitError, TraceSet, run_transients, same_lockstep_group

log = logging.getLogger("fluxon.margins")

BOUND = 0.9  # the search cap on each side, as a fraction of nominal
LEVELS_PER_BATCH = 3  # bisection levels one lockstep batch looks ahead


class MarginError(ValueError):
    pass


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
    _, _, nominal = netlist.resolve_selector(param)
    ahead = same_lockstep_group(netlist, netlist.with_param(param, nominal * (1.0 + BOUND)))
    passed: dict[float, bool] = {}  # signed fraction -> pass_test result
    batches = 0

    def probe(*fractions: float) -> None:
        """pass_test at fractions[0], and at the look-ahead points after it."""
        nonlocal batches
        variants = [netlist.with_param(param, nominal * (1.0 + f)) for f in fractions]
        batches += 1
        try:
            runs = run_transients(variants, record=False)
        except CircuitError:
            if len(fractions) == 1:
                raise
            return probe(fractions[0])
        for f, traces in zip(fractions, runs):
            passed[f] = bool(pass_test(traces))

    look = _subtree(0.0, BOUND, LEVELS_PER_BATCH, resolution) if ahead else []
    probe(0.0, *((-BOUND, BOUND) if ahead else ()), *(-f for f in look), *look)
    if not passed[0.0]:
        raise MarginError(f"nominal fails: pass_test is false at {param} = {nominal}")

    def search(sign: float) -> float:
        if sign * BOUND not in passed:
            probe(sign * BOUND)
        if passed[sign * BOUND]:
            return BOUND
        lo, hi = 0.0, BOUND  # lo passes, hi fails
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:  # a resolution finer than float spacing stops here
                break
            if sign * mid not in passed:
                levels = LEVELS_PER_BATCH if ahead else 1
                probe(*(sign * f for f in _subtree(lo, hi, levels, resolution)))
            if passed[sign * mid]:
                lo = mid
            else:
                hi = mid
        return lo

    margins = search(-1.0), search(+1.0)
    log.info("margins: %s: %d transients in %d batches", param, len(passed), batches)
    return margins


def _subtree(lo: float, hi: float, levels: int, resolution: float) -> list[float]:
    """The points the bisection of (lo, hi) may probe in its next `levels`
    levels, [mid, *below, *above]: a level is left out once its interval
    is no wider than resolution or its midpoint is not strictly inside."""
    mid = 0.5 * (lo + hi)
    if levels == 0 or not hi - lo > resolution or not lo < mid < hi:
        return []
    return [mid, *_subtree(lo, mid, levels - 1, resolution), *_subtree(mid, hi, levels - 1, resolution)]
