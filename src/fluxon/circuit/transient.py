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
values (sampled over the whole time grid up front, each waveform on the
time array in one call) to the new state without supercurrents and to
the predictor, the phases the previous voltages extrapolate to, in one
product; c = Ic sin(phi_new) are the supercurrents, whose columns Z
follow from A^-1 P (P the junction incidence, junction voltages
v = P^T x). Newton iteration then runs on the n_j new phases p alone,
from the predictor: with r the phases the step would reach without
supercurrent and Zp the phase rows of Z, it drives the residual
f = p - r + Zp Ic sin(p) to zero. Its Jacobian I + Zp diag(Ic cos p)
lies within rho = ||Zp diag(Ic)||_inf of the identity (about 1e-3 on
the bundled cells, 5e-3 on the Euler step), so none is formed: with
c = Ic cos(p) taken once per step at the predictor, an update is the
second-order Neumann series dp = f - g + Zp (c g), g = Zp (c f). A
variant whose rho reaches 1/2 is a CircuitError naming it, the junction
and the step. Each of at most NEWTON_MAX_ITER passes evaluates f and
updates once, except that from the second pass on max|f| <= NEWTON_FTOL
ends the step instead; its state is then M u_prev - Z c with the
supercurrents c of that residual. A converged step thus costs one
update. A netlist without junctions skips Newton.

M and Z do not depend on junction critical currents or source
waveforms, so `run_transients` advances every group of netlists that
differ only in those (on one time grid) in lockstep: the state becomes
a (dim, variants) array, one loop serves the group, and numpy's per-call
overhead, which dominates a step of these small circuits, is paid once
per step for the whole group; `run_transient` is a batch of one, a
(dim, 1) state. Newton runs under a per-variant mask: a variant whose
residual has met NEWTON_FTOL updates by zero while the others iterate,
so each variant stops on its own test, follows the updates of its solo
run and keeps its own counters. Assembly order is fixed by netlist
order and the arithmetic is pure float64, so identical inputs give
bit-identical traces; a variant of a batch matches its solo run to
round-off (the matrix products run over all variants at once).

Because the junction phase update is the trapezoidal rule applied to
dphi/dt = (2 pi / PHI0) V, trapezoid-rule quadrature of a junction's
voltage trace equals (PHI0 / 2 pi) * (phase advance) exactly from the
second step on; detected pulses therefore integrate to one flux quantum
up to window clipping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core import PHI0
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

DEFAULT_STEP_PS = 0.05
MAX_STEP_PS = 0.1
NEWTON_MAX_ITER = 50
NEWTON_FTOL = 1e-11  # radians, on the junction phase residual


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


@dataclass
class TraceSet:
    """Uniform-grid transient results.

    node_voltage holds the requested nodes (all nodes when the netlist
    carries no print requests); junction phases/voltages and inductor
    currents are always recorded in full. newton_iterations counts the
    Newton updates of the whole run, newton_max_per_step is the most
    updates any one step took, newton_residual is the largest junction
    phase residual of any accepted step, and newton_rho is the largest
    ||Zp diag(Ic)||_inf of the run's step operators, the distance of the
    junction Jacobian from the identity that bounds each update's error.
    """

    time_ps: np.ndarray
    node_voltage: dict[str, np.ndarray]
    junction_phase: dict[str, np.ndarray]
    junction_voltage: dict[str, np.ndarray]
    inductor_current: dict[str, np.ndarray]
    newton_iterations: int = 0
    newton_max_per_step: int = 0
    newton_residual: float = 0.0
    newton_rho: float = 0.0


def run_transient(
    netlist: Netlist,
    stop: float | None = None,
    step: float | None = None,
) -> TraceSet:
    """Simulate [0, stop] ps on a uniform grid of `step` ps.

    Arguments default to the netlist's .tran directive, then to a
    0.05 ps step. Steps above 0.1 ps are rejected: the junction
    switching waveforms need the resolution.
    """
    return run_transients([netlist], stop, step)[0]


def run_transients(
    netlists: Sequence[Netlist],
    stop: float | None = None,
    step: float | None = None,
) -> list[TraceSet]:
    """run_transient of every netlist, advancing same-topology variants in lockstep.

    Netlists that differ only in junction critical currents and source
    waveforms, on the same time grid, form one group and share its
    linear operators; the results come back in input order. Every
    variant of a group holds its full traces until the group is done,
    so memory grows with the group size. A numeric failure in a batch
    of several netlists names the variant's index in `netlists`.
    """
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
        for i, tr in zip(ix, _run_group([netlists[i] for i in ix], nl_stop, nl_step, names)):
            traces[i] = tr
    return traces


def same_lockstep_group(a: Netlist, b: Netlist) -> bool:
    """Whether run_transients advances a and b together on a shared time grid."""
    return _lockstep_key(a) == _lockstep_key(b)


def _lockstep_key(nl: Netlist) -> tuple:
    return nl.prints, tuple(map(_topology, nl.devices))


def _topology(d: Device) -> object:
    """A device with its junction Ic or source waveform left out."""
    if isinstance(d, Junction):
        return (Junction, d.name, d.np_, d.nm, d.rn, d.cap)
    if isinstance(d, (CurrentSource, VoltageSource)):
        return (type(d), d.name, d.np_, d.nm)
    return d


def _run_group(batch: list[Netlist], stop: float, step: float, names: list) -> list[TraceSet]:
    """Transients of same-topology variants; names[v] is variant v's batch index."""
    h = step * 1e-12  # SI seconds
    n_steps = int(round(stop / step))
    times = np.arange(n_steps + 1) * step
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

    j_names = {d.name for d in junctions}
    for kind, name in netlist.prints:
        if name not in (node_ix if kind == "v" else j_names):
            what = "node" if kind == "v" else "junction"
            raise CircuitError(f"print request for unknown {what} {name!r}")
    want_nodes = [n for kind, n in netlist.prints if kind == "v"] or nodes

    # Sources sampled over the whole grid, each distinct waveform once:
    # waves[n] holds the source values (per variant) at step n.
    src_at = [netlist.devices.index(d) for d in sources]
    waves = np.empty((n_steps + 1, len(sources), K))
    sampled: dict = {}
    for v, var in enumerate(batch):
        for k, i in enumerate(src_at):
            wf = var.devices[i].waveform
            if wf not in sampled:
                sampled[wf] = wf(times)
            waves[:, k, v] = sampled[wf]
    j_at = [netlist.devices.index(d) for d in junctions]
    j_ic = np.array([[var.devices[i].ic for var in batch] for i in j_at]).reshape(n_j, K)

    # Recorded rows of the state: print nodes, inductor currents,
    # junction phases, junction voltages.
    rec_ix = np.array(
        [node_ix[n] for n in want_nodes]
        + [branch[L.name] for L in inductors]
        + list(range(m, m + 2 * n_j)),
        dtype=int,
    )
    rec = np.empty((len(rec_ix), K, n_steps + 1))
    # The state of _step_operators, whose last rows hold the junction
    # predictor and the step's source values.
    dim = m + 3 * n_j
    ph = slice(m, m + n_j)  # junction phases; voltages and capacitor currents follow
    pred, src = slice(dim, dim + n_j), slice(dim + n_j, None)
    u = np.zeros((dim + n_j + len(sources), K))
    for L in inductors:
        u[branch[L.name]] = L.ic
    rec[..., 0] = u[rec_ix]

    # Every step with junctions makes one update per variant; later
    # updates and the worst accepted residual are kept per variant.
    first_updates = n_steps if n_j else 0
    extra_updates = np.zeros(K, dtype=int)
    most = np.full(K, min(first_updates, 1))
    worst = np.zeros(K)
    rho = np.zeros(K)
    for n in range(1, n_steps + 1):
        if n <= 2:  # backward Euler on the first step, trapezoidal after
            M, Z = _step_operators(netlist, node_ix, branch, sources, junctions, h, n == 1)
            Zp = Z[ph]
            rows = np.abs(Zp).dot(j_ic)  # row sums of |Zp| diag(Ic), per variant
            rho = np.maximum(rho, rows.max(axis=0, initial=0.0))
            if not np.all(rho < 0.5):  # the update may stop contracting; a NaN rho fails too
                v = int(np.argmax(~(rho < 0.5)))
                j = junctions[int(np.argmax(rows[:, v]))].name
                raise CircuitError(
                    f"junction coupling rho = {rho[v]:.3g} >= 1/2 at junction {j} on the "
                    f"step to t = {times[n]:.4f} ps: the Newton update may not contract{_in_variant(names[v])}"
                )
        u[src] = waves[n]
        u = M.dot(u)
        if n_j:
            p, r = u[pred], u[ph]  # the predictor; the new phases if no supercurrent flowed
            c = j_ic * np.cos(p)  # the Jacobian is I + Zp diag(c), taken at the predictor
            live = True  # the variants still iterating: all on the first pass
            for it in range(1, NEWTON_MAX_ITER + 1):  # it - 1 updates so far
                s = j_ic * np.sin(p)
                f = p - r + Zp.dot(s)
                if it > 1:
                    res = np.abs(f).max(axis=0)
                    done = res <= NEWTON_FTOL  # a NaN residual is not done
                    if np.count_nonzero(done) == K:
                        break
                    live = ~done
                    extra_updates += live
                    most = np.maximum(most, it * live)
                    f = np.where(live, f, 0.0)  # converged variants update by 0
                # (I + Zp diag c)^-1 f to second order in Zp diag c
                g = Zp.dot(c * f)
                dp = f - g + Zp.dot(c * g)
                p -= dp
            else:
                v = int(np.argmax(live))  # the first variant still iterating
                update, residual = (float(np.abs(a).max(axis=0)[v]) for a in (dp, f))
                raise NewtonError(float(times[n]), NEWTON_MAX_ITER, update, residual, names[v])
            worst = np.maximum(worst, res)
            u -= Z.dot(s)
        rec[..., n] = u.take(rec_ix, axis=0)  # about half the cost of u[rec_ix] on a 2-D state

    out = []
    for v in range(K):
        rows = iter(rec[:, v])  # in the order of rec_ix
        out.append(
            TraceSet(
                time_ps=times,
                node_voltage={name: next(rows) for name in want_nodes},
                inductor_current={L.name: next(rows) for L in inductors},
                junction_phase={d.name: next(rows) for d in junctions},
                junction_voltage={d.name: next(rows) for d in junctions},
                newton_iterations=first_updates + int(extra_updates[v]),
                newton_max_per_step=int(most[v]),
                newton_residual=float(worst[v]),
                newton_rho=float(rho[v]),
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
) -> tuple[np.ndarray, np.ndarray]:
    """(M, Z) for a backward-Euler (first) or trapezoidal step of h seconds.

    The state u stacks the MNA unknowns x, a ground slot, the junction
    phases, voltages v = P^T x and capacitor currents, then the junction
    predictor and the source values w. With w set to the step's values,
    u0 = M u is the step without supercurrents, its predictor rows the
    phases the previous voltages extrapolate to and its source rows 0;
    the step is u = u0 - Z Ic sin(phi_new). A holds every linear stamp,
    H the inductor and capacitor history, S the sources and P the
    junction incidence; the ground row and column are left out of the
    inversion.
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
    X = np.zeros((m, m + len(sources) + n_j))  # the ground row stays 0
    try:
        X[:-1] = np.linalg.solve(A[:-1, :-1], np.hstack([H[:-1], S[:-1], P[:-1]]))
    except np.linalg.LinAlgError as exc:
        raise CircuitError(f"singular system matrix: {exc}") from None
    Hx, Sx, Px = np.split(X, [m, m + len(sources)], axis=1)
    # x_new = Hx x + Sx w + Px (i_cap - c), and the new state is T x_new + U u.
    fac_c = fac * np.array([d.cap for d in junctions])
    T = np.vstack([np.eye(m), a * P.T, P.T, fac_c[:, None] * P.T])
    eye, zero = np.eye(n_j), np.zeros((n_j, n_j))
    U = np.zeros((m + 3 * n_j, m + 3 * n_j))
    U[m:, m:] = np.block([[eye, b * eye, zero], [zero, zero, zero], [zero, -fac_c * eye, -eye]])
    dim, n_s = m + 3 * n_j, len(sources)
    M = np.zeros((dim + n_j + n_s, dim + n_j + n_s))
    M[:dim, :dim] = T @ np.hstack([Hx, np.zeros((m, 2 * n_j)), Px]) + U
    M[:dim, dim + n_j:] = T @ Sx
    M[dim:dim + n_j, m:m + 2 * n_j] = np.hstack([eye, (a + b) * eye])
    Z = np.zeros((dim + n_j + n_s, n_j))
    Z[:dim] = T @ Px
    return M, Z


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
    fh.write(",".join(["time_ps"] + [c[0] for c in cols]) + "\n")
    rows = np.column_stack([traces.time_ps] + [c[1] for c in cols]).tolist()
    fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
