"""Fixed-step transient solver for small superconducting netlists.

Modified nodal analysis over the node voltages plus one branch current
per inductor and per voltage source. Josephson junctions follow the
RCSJ model

    I = Ic sin(phi) + V/Rn + C dV/dt,   V = (PHI0 / 2 pi) dphi/dt

integrated with the trapezoidal rule; the first step uses backward
Euler, which needs no derivative history and so honors inductor
initial currents cleanly.

Every stamp except the supercurrents Ic sin(phi) is linear. The solver
keeps one state vector u: the MNA unknowns, a ground slot, the junction
phases, voltages and capacitor currents, then a junction predictor and
the source values w. The linear matrix A is solved once per run for the
Euler step and once for the trapezoidal steps, which turns a step into
u = M u_prev - Z c: M maps the previous state and the step's source
values to the new state without supercurrents and to the predictor in
one product; c = Ic sin(phi_new) are the supercurrents, whose columns Z
follow from A^-1 P (P the junction incidence, junction voltages
v = P^T x). The predictor extrapolates each phase to second order,
phi + h phi' + h^2/2 phi'', from the previous voltage,
phi' = (2 pi / PHI0) V, and capacitor current,
phi'' = (2 pi / PHI0) i_cap / C: one more entry of M per junction, so
it costs the step nothing. The Euler first step and a junction without
capacitance extrapolate to first order. Newton iteration then runs on
the n_j new phases p alone, from the predictor: with r the phases the
step would reach without supercurrent and Zp the phase rows of Z, it
drives the residual
f = p - r + Zp Ic sin(p) to zero. Its Jacobian I + Zp diag(Ic cos p)
lies within rho = ||Zp diag(Ic)||_inf of the identity (0.07 on the
bundled cells' 0.4 ps Euler step, 5e-3 at 0.1 ps), so none is formed: with
c = Ic cos(p) taken once per step at the predictor, an update is the
second-order Neumann series dp = f - g + Zp (c g), g = Zp (c f). A
variant whose rho reaches 1/2 is a CircuitError naming it, the junction
and the step. Each of at most NEWTON_MAX_ITER passes evaluates f and
updates once, except that from the second pass on max|f| <= ftol, the
run's tolerance (NEWTON_FTOL unless run_transients is given another),
ends the step instead; its state is then M u_prev - Z c with the
supercurrents c of that residual. A pass forms the whole product Z c,
whose phase rows give f and which the step then subtracts as it is, so
the check and the state update share one product. A converged step
thus costs one update: from the second-order predictor all but a few
steps of the bundled cells converge in one at 0.1 ps, and at their
0.4 ps step they take 1.17 to 1.50 updates a step at NEWTON_FTOL and
one at PROBE_FTOL, the looser tolerance margin probes solve to, whose
bound on the pulse times is derived where it is set. A netlist without
junctions skips Newton. A singular A is a CircuitError naming
the node voltages and branch currents in its null space: the nodes of
an island with no path to ground, the currents of voltage sources in
parallel. Values the parser accepts can still overflow: numpy's
floating-point warnings are off during a run, and the run checks for
finite values instead. A non-finite entry of the stamps or of M or Z,
checked once per operator, is a CircuitError naming the nodes, branch
currents, junctions and sources whose rows hold it; a non-finite state,
checked once per chunk and when Newton fails, is a CircuitError naming
the step, the variant and the rows. No run returns a NaN trace.

M and Z do not depend on junction critical currents or source
waveforms, so `run_transients` advances every group of netlists that
differ only in those (on one time grid) in lockstep: the state becomes
a (dim, variants) array, one loop serves the group, and numpy's per-call
overhead, which dominates a step of these small circuits, is paid once
per step for the whole group; `run_transient` is a batch of one, a
(dim, 1) state. Newton runs under a per-variant mask: a variant whose
residual has met the tolerance updates by zero while the others iterate,
so each variant stops on its own test, follows the updates of its solo
run and keeps its own counters. Assembly order is fixed by netlist
order and the arithmetic is pure float64, so identical inputs give
bit-identical traces; a variant of a batch matches its solo run to
round-off (the matrix products run over all variants at once).

The steps run in chunks of CHUNK through a (CHUNK + 1, rows, variants)
state buffer: each step writes its state and predictor rows into the
buffer's next slot with one product. Work that need not happen per step
happens once per chunk: one gather fills the source rows of the chunk's
states from the sampled waveforms, the recorded rows go to the traces in
one copy, and the worst accepted residual is folded from a buffer of
the chunk's |f|. A step allocates nothing: each slot's views of the
buffer are made once per run, the step's supercurrents, products,
residual and update are written in place into arrays allocated once,
and a pass under the mask adds the variants still iterating to a
(CHUNK, variants) update count that the Newton counters fold once per
chunk. Each distinct source waveform is sampled over the whole
time grid once, in one call, and stored once, as a column shared by
every variant that drives a source with it.

A step that converges in one update is thus a fixed run of about two
dozen numpy calls on arrays of a few to a few hundred elements, and
what it costs is the overhead of each call rather than its arithmetic.
So the step loop binds every numpy callable it calls to a local once per
run (the ufuncs, count_nonzero, logical_and.reduce, copyto and the
operators' dot methods, rebound where the operators switch on steps 1
and 2) and passes each output by position, which skips a global
lookup and out= keyword parsing per call. The arithmetic and its
order are those of the unbound calls, so the traces are bit-identical
to theirs.

Every run stamps each junction's (2k+1) pi crossings chunk by chunk,
with detect_pulses' search and interpolation: one comparison over the
chunk's phases finds the junctions of the variants that reached their
next target, and only those are searched. A step may carry a junction
past one target at most: one that reaches two is a CircuitError naming
the junction, the time and the variant. A recorded run keeps the
rows of every junction and inductor and steps the whole grid. A lean
run (record=False) keeps the print-request node rows alone, so a wide
batch of margin probes holds pulses instead of waveforms, and it ends
at the end of its first quiet chunk, where three things hold:
- every source it drives holds its final sample from the chunk's first
  step to the end of the grid (read once per run from the sampled
  waveforms, so a sine never ends a run);
- over the whole chunk every junction's |V| stays below QUIET_VOLTAGE
  and every inductor current changes by less than QUIET_CURRENT (a rate,
  1e-8 A/ps) times the step, so the test does not tighten as the step
  shrinks;
- every junction ends the chunk at least QUIET_PHASE short of its next
  (2k+1) pi target.
The junction test alone is not enough: a loop current can keep moving
under still junctions and fire one later. An ended variant's TraceSet
stops at that step, time grid, node rows and Newton counters alike, and
takes no later stamps, so it is the variant's solo lean run, up to the
round-off by which any batch differs from its solo runs. The variant
keeps stepping in the batch, and the batch stops once every variant has
ended.

Because the junction phase update is the trapezoidal rule applied to
dphi/dt = (2 pi / PHI0) V, trapezoid-rule quadrature of a junction's
voltage trace equals (PHI0 / 2 pi) * (phase advance) exactly from the
second step on; detected pulses therefore integrate to one flux quantum
up to window clipping.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core import PHI0, csv_text
from .netlist import (
    CurrentSource,
    Device,
    Inductor,
    Junction,
    Mutual,
    Netlist,
    Resistor,
    VoltageSource,
)
from .pulses import stamp_crossings

DEFAULT_STEP_PS = 0.05
# The bundled cells' step and the cap. Measured on soma2, soma3 and jtl at
# their own stimuli and criterion 7's input counts: at 0.4 ps every pulse
# time lies within 0.04 ps of a run at a sixteenth of the step, and no
# junction gains or loses a pulse; tests hold it to a 0.05 ps budget. The
# larger step costs 1.2-1.5 Newton updates a step (1.00 at 0.1 ps), at
# rho = 0.071, and a quarter of the steps.
MAX_STEP_PS = 0.4
NEWTON_MAX_ITER = 50
NEWTON_FTOL = 1e-11  # radians, on the junction phase residual
# The tolerance margin probes solve to, from the pulse-time budget. A step
# accepted at residual delta lies within delta / (1 - rho) <= 2 delta of its
# root, since rho < 1/2; over the N steps before a crossing these errors add
# up to at most 2 N delta (unless the dynamics amplifies them, which a test
# rules out on the bundled cells), and shift the crossing by at most
# 2 N delta / (dphi/dt there). The bundled cells' stimuli cross by 227 ps
# (N <= 566 steps of 0.4 ps) at dphi/dt >= 0.136 rad/ps (soma2's b1), so
# 1e-6 rad moves a pulse by at most 2 * 566 * 1e-6 / 0.136 = 0.0083 ps: it
# fits in the 0.0116 ps the 0.05 ps test budget leaves beside the 0.0384 ps
# the 0.4 ps step takes. Every step of those runs then takes one update
# (1.29-1.52 at NEWTON_FTOL), and no pulse moved by more than 3e-7 ps.
PROBE_FTOL = 1e-6  # radians
QUIET_VOLTAGE = 1e-6  # volts: a quiet chunk keeps every junction's |V| below this
QUIET_CURRENT = 1e-8  # amperes per ps: ... and every inductor current's rate of change below this
QUIET_PHASE = 0.5  # radians: ... and every junction at least this far short of its next target
CHUNK = 64  # steps per pass of the state buffer

log = logging.getLogger("fluxon.transient")


class CircuitError(RuntimeError):
    pass


class NewtonError(CircuitError):
    def __init__(self, time_ps: float, iterations: int, update: float, residual: float,
                 variant: int | None = None):
        super().__init__(
            f"Newton iteration failed to converge within {iterations} "
            f"iterations at t = {time_ps:.4f} ps (last update {update:.3e}, "
            f"residual {residual:.3e}){_in_variant(variant)}"
        )
        self.time_ps = time_ps
        self.iterations = iterations
        self.update = update
        self.residual = residual
        self.variant = variant


def _in_variant(variant: int | None) -> str:
    return "" if variant is None else f" in variant {variant} of the batch"


class Unrecorded(dict):
    """An empty trace field of a record=False run; reading a key is a CircuitError."""

    def __init__(self, field: str):
        super().__init__()
        self.field = field

    def __missing__(self, key):
        raise CircuitError(f"{self.field}[{key!r}] is not recorded: the run had record=False")


@dataclass
class TraceSet:
    """Uniform-grid transient results.

    node_voltage holds the requested nodes (all nodes when the netlist
    carries no print requests). pulses maps each junction to the times
    of its (2k+1) pi crossings, stamped as the run stepped with
    detect_pulses' interpolation. A recorded run also holds every
    junction's phase and voltage and every inductor's current; a lean
    run (record=False) leaves those three fields empty, and reading one
    of their keys is a CircuitError. A lean run ends once it is quiet
    (see the module docstring): its time_ps and node rows stop there,
    so node_voltage[name][-1] is the value at its quiet end, and its
    counters count the steps up to it. newton_iterations counts the
    Newton updates of the whole run, newton_max_per_step is the most
    updates any one step took, newton_residual is the largest junction
    phase residual of any accepted step, and newton_rho is the largest
    ||Zp diag(Ic)||_inf of the run's step operators, the distance of the
    junction Jacobian from the identity that bounds each update's error.
    newton_ftol is the residual tolerance the run solved to.
    """

    time_ps: np.ndarray
    node_voltage: dict[str, np.ndarray]
    junction_phase: dict[str, np.ndarray]
    junction_voltage: dict[str, np.ndarray]
    inductor_current: dict[str, np.ndarray]
    pulses: dict[str, tuple[float, ...]]
    newton_iterations: int = 0
    newton_max_per_step: int = 0
    newton_residual: float = 0.0
    newton_rho: float = 0.0
    newton_ftol: float = 0.0


def run_transient(
    netlist: Netlist,
    stop: float | None = None,
    step: float | None = None,
) -> TraceSet:
    """Simulate [0, stop] ps on a uniform grid of `step` ps.

    Arguments default to the netlist's .tran directive, then to a
    0.05 ps step. Steps above MAX_STEP_PS (0.4 ps) are rejected: at that
    step the bundled cells' pulse times stay within 0.05 ps of a run at a
    sixteenth of it, with every pulse kept, and longer steps are not
    measured. Within the cap, a step too long for a netlist's own
    dynamics shows as a CircuitError: a junction coupling rho of 1/2 or
    more, or a junction slipping twice in one step.
    """
    return run_transients([netlist], stop, step)[0]


def run_transients(
    netlists: Sequence[Netlist],
    stop: float | None = None,
    step: float | None = None,
    record: bool = True,
    ftol: float | None = None,
) -> list[TraceSet]:
    """run_transient of every netlist, advancing same-topology variants in lockstep.

    Netlists that differ only in junction critical currents and source
    waveforms, on the same time grid, form one group and share its
    linear operators; the results come back in input order. A numeric
    failure in a batch of several netlists names the variant's index in
    `netlists`.

    Every run stamps each junction's pulses as it steps, equal to
    detect_pulses on its phase. A recorded run keeps every junction's
    phase and voltage and every inductor's current at every step of the
    grid, so each variant of a group holds (nodes + inductors + 2
    junctions) x steps floats until the group is done. With
    record=False the run keeps only the print-request nodes and ends
    at the end of its first quiet chunk: its sources hold their final
    samples, its junction voltages stay under QUIET_VOLTAGE, its
    inductor currents move at less than QUIET_CURRENT per ps, and every
    junction is QUIET_PHASE short of its next crossing. Its pulses are
    those of a recorded run at the same tolerance, and its time grid,
    node rows and Newton counters those of that run stopped at its end:
    the way to run many variants whose test reads pulses or final node
    voltages.

    Newton ends a step once every junction's phase residual is at most
    ftol radians, NEWTON_FTOL (read when the call runs) by default;
    margin scans pass the looser PROBE_FTOL.
    """
    ftol = NEWTON_FTOL if ftol is None else ftol
    groups: dict[tuple, list[int]] = {}
    for i, nl in enumerate(netlists):
        nl_step = step if step is not None else (nl.tran_step or DEFAULT_STEP_PS)
        nl_stop = stop if stop is not None else nl.tran_stop
        if nl_stop is None:
            raise CircuitError("no stop time: pass stop= or add a .tran directive")
        if not 0.0 <= nl_stop < math.inf:
            raise CircuitError(f"stop must be finite and >= 0 ps, got {nl_stop}")
        if not 0.0 < nl_step <= MAX_STEP_PS:
            raise CircuitError(f"step must lie in (0, {MAX_STEP_PS}] ps, got {nl_step}")
        if not nl.devices:
            raise CircuitError("empty netlist")
        groups.setdefault((nl_step, nl_stop, _lockstep_key(nl)), []).append(i)
    traces: list = [None] * len(netlists)
    for (nl_step, nl_stop, *_), ix in groups.items():
        names = ix if len(netlists) > 1 else [None]
        t0 = time.perf_counter()
        with np.errstate(all="ignore"):  # the run checks its operators and states for finite values instead
            group = _run_group([netlists[i] for i in ix], nl_stop, nl_step, names, record, ftol)
        dt = time.perf_counter() - t0
        steps = max(len(tr.time_ps) for tr in group) - 1  # the steps the group stepped
        extra = sum(max(tr.newton_iterations - len(tr.time_ps) + 1, 0) for tr in group)
        log.debug("transient: %d variants, %d of %d steps in %.3f s (%.1f µs/step), %d extra Newton updates",
                  len(ix), steps, round(nl_stop / nl_step), dt, 1e6 * dt / max(steps, 1), extra)
        for i, tr in zip(ix, group):
            traces[i] = tr
    return traces


def _lockstep_key(nl: Netlist) -> tuple:
    return nl.prints, tuple(map(_topology, nl.devices))


def _topology(d: Device) -> object:
    """A device with its junction Ic or source waveform left out."""
    if isinstance(d, Junction):
        return (Junction, d.name, d.np_, d.nm, d.rn, d.cap)
    if isinstance(d, (CurrentSource, VoltageSource)):
        return (type(d), d.name, d.np_, d.nm)
    return d


def _run_group(batch: list[Netlist], stop: float, step: float, names: list,
               record: bool, tol: float) -> list[TraceSet]:
    """Transients of same-topology variants; names[v] is variant v's batch index."""
    h = step * 1e-12  # SI seconds
    n_steps = int(round(stop / step))
    try:
        times = np.arange(n_steps + 1) * step
    except (ValueError, MemoryError):  # more samples than an array can hold
        raise CircuitError(f"a {step} ps step to {stop} ps makes {stop / step:.3g} steps, "
                           "too many for one time grid") from None
    K = len(batch)  # every array below carries a trailing variant axis

    netlist = batch[0]
    nodes = netlist.nodes
    n_nodes = len(nodes)
    inductors = [d for d in netlist.devices if isinstance(d, Inductor)]
    vsources = [d for d in netlist.devices if isinstance(d, VoltageSource)]
    sources = [d for d in netlist.devices if isinstance(d, (CurrentSource, VoltageSource))]
    junctions = [d for d in netlist.devices if isinstance(d, Junction)]
    branch = {d.name: n_nodes + i for i, d in enumerate(inductors + vsources)}
    m = n_nodes + len(branch) + 1  # MNA unknowns, then a ground slot held at 0
    node_ix = {n: i for i, n in enumerate(nodes)}
    node_ix["0"] = m - 1
    n_j = len(junctions)

    want_nodes = [n for kind, n in netlist.prints if kind == "v"] if netlist.prints else nodes

    # Sources sampled over the whole grid, each distinct waveform once:
    # source k of variant v takes column wcol[k, v] of waves, and column c
    # holds its last sample from step held_from[c] on.
    src_at = [netlist.devices.index(d) for d in sources]
    sampled: dict = {}
    wcol = np.array([[sampled.setdefault(var.devices[i].waveform, len(sampled)) for var in batch]
                     for i in src_at], dtype=int).reshape(len(sources), K)
    waves = np.empty((n_steps + 1, len(sampled)))
    held_from = np.zeros(len(sampled), dtype=int)
    for wf, c in sampled.items():
        waves[:, c] = wave = wf(times)
        moved = wave[::-1] != wave[-1]  # counted from the end
        held_from[c] = n_steps + 1 - moved.argmax() if moved.any() else 0
    final_from = held_from[wcol].max(axis=0, initial=0)  # per variant, over its sources
    j_at = [netlist.devices.index(d) for d in junctions]
    j_ic = np.array([[var.devices[i].ic for var in batch] for i in j_at]).reshape(n_j, K)

    # Recorded rows of the state: print nodes, then in a recorded run
    # inductor currents, junction phases, junction voltages.
    rec_ix = np.array(
        [node_ix[n] for n in want_nodes]
        + ([branch[L.name] for L in inductors] + list(range(m, m + 2 * n_j)) if record else []),
        dtype=int,
    )
    rec = np.empty((len(rec_ix), K, n_steps + 1))
    # The state of _step_operators, whose last rows hold the junction
    # predictor and the step's source values. A chunk of steps runs in
    # buf: buf[i + 1] is the state after buf[i], buf[0] the state the
    # chunk starts from, and each state's source rows hold the values of
    # the step out of it.
    dim = m + 3 * n_j
    top = dim + n_j  # the rows a step writes: the state, then the predictor
    ph = slice(m, m + n_j)  # junction phases; voltages and capacitor currents follow
    pred, src = slice(dim, top), slice(top, None)
    buf = np.zeros((CHUNK + 1, top + len(sources), K))
    # What each state row belongs to, for the errors that name rows: a
    # junction owns its phase, voltage, capacitor current and predictor.
    owners = (("node", "nodes", {n: (i,) for n, i in node_ix.items() if n != "0"}),
              ("the current of", "the currents of", {b: (i,) for b, i in branch.items()}),
              ("junction", "junctions", {d.name: range(m + k, top, n_j) for k, d in enumerate(junctions)}),
              ("source", "sources", {d.name: (top + k,) for k, d in enumerate(sources)}))
    for L in inductors:
        buf[0, branch[L.name]] = L.ic
    rec[..., 0] = buf[0, rec_ix]
    target = np.full((n_j, K), math.pi)  # the next crossing each junction waits for
    stamps: list[list[list[float]]] = [[[] for _ in junctions] for _ in range(K)]
    fabs = np.empty((CHUNK, n_j, K))  # |f| of each step's accepted residual
    updates = np.zeros((CHUNK, K), dtype=int)  # each step's updates after its first
    # Step i of a chunk reads state buf[i] and writes buf[i + 1]: its
    # state x, predictor p and supercurrent-free phases r, views made once.
    slots = [(buf[i], buf[i + 1][:top], buf[i + 1][:dim], buf[i + 1][pred], buf[i + 1][ph], fabs[i],
              updates[i]) for i in range(CHUNK)]
    # A step's work arrays, written in place: no step allocates.
    c, s, f, w, g, g2, dp = (np.empty((n_j, K)) for _ in range(7))
    zs = np.empty((dim, K))
    zs_ph = zs[ph]
    ftol = np.full((n_j, K), tol)
    done = np.empty((n_j, K), dtype=bool)
    converged, alive = np.empty(K, dtype=bool), np.empty(K, dtype=bool)

    # Every step with junctions makes one update per variant; later
    # updates and the worst accepted residual are kept per variant.
    extra_updates = np.zeros(K, dtype=int)
    most = np.full(K, int(n_j > 0 and n_steps > 0))
    worst = np.zeros(K)
    rho = np.zeros(K)
    # A lean variant ends at the end of its first quiet chunk: end[v] is
    # its last step, and ended[v] its counters (extra, most, worst) there.
    end = np.full(K, n_steps)
    ended: dict[int, tuple] = {}
    may_end = np.full(K, not record)  # the lean variants still stepping
    vj = slice(m + n_j, m + 2 * n_j)  # junction voltages
    il = slice(n_nodes, n_nodes + len(inductors))  # inductor currents
    d_il = np.empty((CHUNK, len(inductors), K))  # their changes over a chunk's steps
    quiet_di = QUIET_CURRENT * step  # the most a quiet inductor current moves in a step
    # Calls bound once and outputs passed by position: see the module docstring.
    sin, cos, mul, sub, add, absolute = np.sin, np.cos, np.multiply, np.subtract, np.add, np.absolute
    less_equal, logical_not, count_nonzero = np.less_equal, np.logical_not, np.count_nonzero
    all_of, copyto, n_done = np.logical_and.reduce, np.copyto, done.size
    for n0 in range(0, n_steps, CHUNK):
        steps = min(CHUNK, n_steps - n0)
        buf[:steps, src] = waves[n0 + 1:n0 + steps + 1, wcol]
        for i in range(steps):
            n = n0 + i + 1
            if n <= 2:  # backward Euler on the first step, trapezoidal after
                M, Z = _step_operators(netlist, node_ix, branch, sources, junctions, h, n == 1, owners)
                M, Zx, Zp = M[:top], Z[:dim], Z[ph]  # the rows of Z below dim are 0
                m_dot, zx_dot, zp_dot = M.dot, Zx.dot, Zp.dot
                rows = np.abs(Zp).dot(j_ic)  # row sums of |Zp| diag(Ic), per variant
                rho = np.maximum(rho, rows.max(axis=0, initial=0.0))
                if not np.all(rho < 0.5):  # the update may stop contracting; a NaN rho fails too
                    v = int(np.argmax(~(rho < 0.5)))
                    j = junctions[int(np.argmax(rows[:, v]))].name
                    raise CircuitError(
                        f"junction coupling rho = {rho[v]:.3g} >= 1/2 at junction {j} on the "
                        f"step to t = {times[n]:.4f} ps: the Newton update may not contract{_in_variant(names[v])}"
                    )
            prev, u, x, p, r, fa, up = slots[i]  # r: the new phases if no supercurrent flowed
            m_dot(prev, u)
            if not n_j:
                continue
            mul(j_ic, cos(p, c), c)  # the Jacobian is I + Zp diag(c), at the predictor
            live = True  # the variants still iterating: all on the first pass
            for it in range(1, NEWTON_MAX_ITER + 1):  # it - 1 updates so far
                mul(j_ic, sin(p, s), s)
                zx_dot(s, zs)  # the check's Zp s, and the step's supercurrent term
                add(sub(p, r, f), zs_ph, f)
                if it > 1:
                    less_equal(absolute(f, fa), ftol, done)  # a NaN residual is not done
                    if count_nonzero(done) == n_done:
                        break
                    all_of(done, 0, None, converged)
                    live = logical_not(converged, alive)
                    up += live
                    copyto(f, 0.0, "same_kind", converged)  # converged variants update by 0
                # (I + Zp diag c)^-1 f to second order in Zp diag c
                zp_dot(mul(c, f, w), g)
                zp_dot(mul(c, g, w), g2)
                p -= add(sub(f, g, dp), g2, dp)
            else:
                _check_finite(u[None], times[n:], owners, names)  # a non-finite state fails Newton too
                v = int(np.argmax(live))  # the first variant still iterating
                update, residual = (float(np.abs(a).max(axis=0)[v]) for a in (dp, f))
                raise NewtonError(float(times[n]), NEWTON_MAX_ITER, update, residual, names[v])
            x -= zs
        _check_finite(buf[1:steps + 1, :dim], times[n0 + 1:], owners, names)
        if n_j:
            counted = updates[:steps]
            extra_updates += counted.sum(axis=0)
            most = np.maximum(most, counted.max(axis=0) + 1)
            counted.fill(0)
        worst = np.maximum(worst, fabs[:steps].max(axis=(0, 1), initial=0.0))
        rec[..., n0 + 1:n0 + steps + 1] = buf[1:steps + 1].take(rec_ix, axis=1).transpose(1, 2, 0)
        phases = buf[:steps + 1, ph]  # from the last state of the chunk before
        for j, v in zip(*np.nonzero((phases[1:] >= target).any(axis=0))):
            try:
                target[j, v] = stamp_crossings(times[n0:n0 + steps + 1], phases[:, j, v],
                                               target[j, v], stamps[v][j])
            except ValueError as exc:  # two targets in one step
                raise CircuitError(f"junction {junctions[j].name}: {exc}{_in_variant(names[v])}") from None
        quiet = may_end & (final_from <= n0 + 1)
        if quiet.any():  # the cheaper tests first; per-axis maxima, which numpy reduces faster
            span = buf[:steps + 1]  # from the last state of the chunk before
            quiet &= np.abs(span[:, vj]).max(axis=0).max(axis=0, initial=0.0) < QUIET_VOLTAGE
            quiet &= (target - span[-1, ph]).min(axis=0, initial=math.inf) >= QUIET_PHASE
        if quiet.any():
            d = sub(span[1:, il], span[:-1, il], d_il[:steps])
            quiet &= absolute(d, d).max(axis=0).max(axis=0, initial=0.0) < quiet_di
            for v in np.flatnonzero(quiet):
                end[v] = n0 + steps
                ended[v] = extra_updates[v], most[v], worst[v]
            target[:, quiet] = math.inf  # an ended variant takes no later stamps
            may_end &= ~quiet
            if not may_end.any():
                break
        buf[0] = buf[steps]

    out = []
    for v in range(K):
        n = int(end[v]) + 1  # the samples variant v keeps
        extra, peak, res = ended.get(v, (extra_updates[v], most[v], worst[v]))
        rows = iter(rec[:, v, :n])  # in the order of rec_ix
        node_voltage = {name: next(rows) for name in want_nodes}
        if record:
            kept = [{d.name: next(rows) for d in devs} for devs in (inductors, junctions, junctions)]
        else:
            kept = [Unrecorded(f) for f in ("inductor_current", "junction_phase", "junction_voltage")]
        out.append(
            TraceSet(
                time_ps=times[:n],
                node_voltage=node_voltage,
                inductor_current=kept[0],
                junction_phase=kept[1],
                junction_voltage=kept[2],
                pulses={d.name: tuple(map(float, ts)) for d, ts in zip(junctions, stamps[v])},
                newton_iterations=(n - 1 if n_j else 0) + int(extra),
                newton_max_per_step=int(peak),
                newton_residual=float(res),
                newton_rho=float(rho[v]),
                newton_ftol=float(tol),
            )
        )
    return out


def _step_operators(
    netlist: Netlist,
    node_ix: dict[str, int],
    branch: dict[str, int],
    sources: list,
    junctions: list[Junction],
    h: float,
    first: bool,
    owners: tuple,
) -> tuple[np.ndarray, np.ndarray]:
    """(M, Z) for a backward-Euler (first) or trapezoidal step of h seconds.

    The state u stacks the MNA unknowns x, a ground slot, the junction
    phases, voltages v = P^T x and capacitor currents, then the junction
    predictor and the source values w. With w set to the step's values,
    u0 = M u is the step without supercurrents, its predictor rows the
    phases phi + h phi' + h^2/2 phi'' the previous voltages and capacitor
    currents extrapolate to (phi + h phi' on the first step and for a
    junction without capacitance) and its source rows 0;
    the step is u = u0 - Z Ic sin(phi_new). A holds every linear stamp,
    H the inductor and capacitor history, S the sources and P the
    junction incidence; the ground row and column are left out of the
    inversion. A non-finite entry of A, H, M or Z is a CircuitError
    naming the state rows it sits in, which `owners` gives the names of.
    """
    fac = (1.0 if first else 2.0) / h
    # phi_new = phi + a*v_new + b*v, i_cap_new = fac*C*(v_new - v) - i_cap
    a = (2.0 if first else 1.0) * math.pi / PHI0 * h
    b = 0.0 if first else a
    m, n_j = node_ix["0"] + 1, len(junctions)  # ground is the last MNA slot
    A = np.zeros((m, m))
    H = np.zeros((m, m))
    S = np.zeros((m, len(sources)))
    P = np.zeros((m, n_j))
    col = {d.name: k for k, d in enumerate(sources)}
    jcol = {d.name: k for k, d in enumerate(junctions)}
    for d in netlist.devices:
        if isinstance(d, Mutual):
            b1, b2 = branch[d.l1], branch[d.l2]
            for p, q in ((b1, b2), (b2, b1)):
                A[p, q] -= fac * d.m
                H[p, q] -= fac * d.m
            continue
        na, nb = node_ix[d.np_], node_ix[d.nm]
        if isinstance(d, Resistor):
            _stamp_g(A, na, nb, 1.0 / d.r)
        elif isinstance(d, Junction):
            _stamp_g(A, na, nb, 1.0 / d.rn + fac * d.cap)
            _stamp_g(H, na, nb, fac * d.cap)
            P[na, jcol[d.name]] += 1.0
            P[nb, jcol[d.name]] -= 1.0
        elif isinstance(d, Inductor):
            br = branch[d.name]
            _stamp_branch(A, na, nb, br)
            A[br, br] = H[br, br] = -fac * d.l
            if not first:  # trapezoidal history: minus the previous branch voltage
                H[br, na] -= 1.0
                H[br, nb] += 1.0
        elif isinstance(d, VoltageSource):
            _stamp_branch(A, na, nb, branch[d.name])
            S[branch[d.name], col[d.name]] = 1.0
        else:
            S[na, col[d.name]] -= 1.0
            S[nb, col[d.name]] += 1.0

    def finite(bad: np.ndarray) -> None:
        """A CircuitError naming the state rows that `bad` flags, if any."""
        if bad.any():
            raise CircuitError(f"the {'backward-Euler' if first else 'trapezoidal'} operator of a "
                               f"{h * 1e12:g} ps step is not finite in the rows of "
                               f"{_named(set(np.flatnonzero(bad).tolist()), owners)}: a device value is out of range")

    stamps = ~(np.isfinite(A) & np.isfinite(H))  # S and P hold only +-1
    finite(stamps.any(axis=0) | stamps.any(axis=1))
    X = np.zeros((m, m + len(sources) + n_j))  # the ground row stays 0
    try:
        X[:-1] = np.linalg.solve(A[:-1, :-1], np.hstack([H[:-1], S[:-1], P[:-1]]))
    except np.linalg.LinAlgError:
        raise CircuitError(f"singular system matrix: no unique solution for "
                           f"{_named(_undetermined(A[:-1, :-1]), owners[:2])}") from None
    Hx, Sx, Px = np.split(X, [m, m + len(sources)], axis=1)
    # x_new = Hx x + Sx w + Px (i_cap - c), and the new state is T x_new + U u.
    caps = np.array([d.cap for d in junctions])
    fac_c = fac * caps
    T = np.vstack([np.eye(m), a * P.T, P.T, fac_c[:, None] * P.T])
    eye, zero = np.eye(n_j), np.zeros((n_j, n_j))
    U = np.zeros((m + 3 * n_j, m + 3 * n_j))
    U[m:, m:] = np.block([[eye, b * eye, zero], [zero, zero, zero], [zero, -fac_c * eye, -eye]])
    dim, n_s = m + 3 * n_j, len(sources)
    M = np.zeros((dim + n_j + n_s, dim + n_j + n_s))
    M[:dim, :dim] = T @ np.hstack([Hx, np.zeros((m, 2 * n_j)), Px]) + U
    M[:dim, dim + n_j:] = T @ Sx
    M[dim:dim + n_j, m:m + 2 * n_j] = np.hstack([eye, (a + b) * eye])
    if not first:  # + h^2/2 phi'', with phi'' = (2 pi / PHI0) i_cap / C
        held = np.flatnonzero(caps)  # a junction without capacitance keeps the first-order predictor
        M[dim + held, m + 2 * n_j + held] = a * h / caps[held]
    Z = np.zeros((dim + n_j + n_s, n_j))
    Z[:dim] = T @ Px
    bad_m, bad_z = ~np.isfinite(M), ~np.isfinite(Z)
    rows = bad_m.any(axis=0) | bad_m.any(axis=1) | bad_z.any(axis=1)
    rows[m:m + n_j] |= bad_z.any(axis=0)  # Z's column k acts on junction k's rows
    finite(rows)
    return M, Z


def _undetermined(A: np.ndarray) -> set[int]:
    """The rows of the singular system A in its null space: the unknowns it leaves free."""
    _, sv, vt = np.linalg.svd(A)
    null = vt[sv <= max(sv[-1], sv[0] * len(sv) * np.finfo(float).eps)]
    return set(np.flatnonzero(np.abs(null).max(axis=0) > 1e-9).tolist())


def _check_finite(states: np.ndarray, times: np.ndarray, owners: tuple, names: list) -> None:
    """A CircuitError unless every state of (steps, rows, variants), reached at `times`, is finite.

    The error names the first step with a non-finite entry, one variant
    that has it and that variant's non-finite rows.
    """
    bad = ~np.isfinite(states)
    if bad.any():
        i = int(bad.any(axis=(1, 2)).argmax())
        v = int(bad[i].any(axis=0).argmax())
        raise CircuitError(f"the state is not finite on the step to t = {times[i]:.4f} ps at "
                           f"{_named(set(np.flatnonzero(bad[i, :, v]).tolist()), owners)}{_in_variant(names[v])}")


def _named(rows: set[int], owners: tuple) -> str:
    """What owns any of the state rows `rows`, by name: owners holds
    (singular, plural, {name: its rows}) for each kind of owner."""
    parts = []
    for one, many, owned in owners:
        names = [n for n, ix in owned.items() if not rows.isdisjoint(ix)]
        if names:
            parts.append(f"{one} {names[0]}" if len(names) == 1
                         else f"{many} {', '.join(names[:-1])} and {names[-1]}")
    return ", and ".join(parts)


def _stamp_g(A: np.ndarray, a: int, b: int, g: float) -> None:
    A[a, a] += g
    A[b, b] += g
    A[a, b] -= g
    A[b, a] -= g


def _stamp_branch(A: np.ndarray, a: int, b: int, br: int) -> None:
    A[a, br] += 1.0
    A[br, a] += 1.0
    A[b, br] -= 1.0
    A[br, b] -= 1.0


def write_waveform_csv(fh, traces: TraceSet, netlist: Netlist) -> None:
    """Waveform CSV: time_ps then one column per print request."""
    cols: list[tuple[str, np.ndarray]] = []
    requests = netlist.prints or tuple(("v", n) for n in traces.node_voltage)
    for kind, name in requests:
        if kind == "v":
            cols.append((f"v({name})", traces.node_voltage[name]))
        else:
            cols.append((f"phi({name})", traces.junction_phase[name]))
    rows = np.column_stack([traces.time_ps] + [c[1] for c in cols]).tolist()
    fh.write(csv_text(["time_ps"] + [c[0] for c in cols], rows))
