"""Parameter margin scans: how far a device value can move before a
functional test breaks.

The scan searches the largest fractional deviations low/high such that
pass_test still holds at nominal*(1-low) and nominal*(1+high),
bisecting each side separately down to `resolution`, which must be
positive and finite, and capping the search at +-BOUND (90%).

When the scanned field leaves the solver's linear operators alone
(junction ic, source waveforms), the variants share one lockstep group,
and the probes run as batches of three (`run_transients`): first
nominal and both bounds, then, one side at a time, the next two
bisection levels together, i.e. the midpoint and both quarter points.
Replaying the bisection over those results gives exactly the margins of
probing one point at a time; a scan runs one probe more per two levels,
in half as many solver loops. Three is the cap because every variant of
a batch holds its full traces until the batch is done. Any other field
(a resistance, an inductance, a junction capacitance) would put every
variant in a group of its own, so the scan probes one point at a time.
When a batch fails numerically, the scan probes the point it needs now
alone and the look-ahead points only once it reaches them, so an error
surfaces only where probing one point at a time would meet it.
"""

from __future__ import annotations

import logging
import math
from typing import Callable

from .netlist import Netlist
from .transient import CircuitError, TraceSet, run_transients, same_lockstep_group

log = logging.getLogger("fluxon.margins")

BOUND = 0.9  # the search cap on each side, as a fraction of nominal


class MarginError(ValueError):
    pass


def margin_scan(
    netlist: Netlist,
    param: str,
    pass_test: Callable[[TraceSet], bool],
    *,
    resolution: float = 0.01,
) -> tuple[float, float]:
    """Fractional (low, high) margins of `param` ('name.field') under pass_test."""
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
            runs = run_transients(variants)
        except CircuitError:
            if len(fractions) == 1:
                raise
            return probe(fractions[0])
        for f, traces in zip(fractions, runs):
            passed[f] = bool(pass_test(traces))

    probe(0.0, *((-BOUND, BOUND) if ahead else ()))
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
                # this level, and the next level's point on each side of mid
                # that the search would still go on to
                below, above = (0.5 * (lo + mid), mid - lo), (0.5 * (mid + hi), hi - mid)
                nxt = [q for q, width in (below, above) if ahead and width > resolution]
                probe(*(sign * f for f in (mid, *nxt)))
            if passed[sign * mid]:
                lo = mid
            else:
                hi = mid
        return lo

    margins = search(-1.0), search(+1.0)
    log.info("margins: %s: %d transients in %d batches", param, len(passed), batches)
    return margins
