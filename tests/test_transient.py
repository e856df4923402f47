import dataclasses
import io
import math
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fluxon.circuit import (
    CircuitError,
    Junction,
    NetlistError,
    NewtonError,
    detect_pulses_in,
    parse_netlist,
    run_transient,
    run_transients,
    transient,
    write_waveform_csv,
)
from fluxon.core import PHI0

# Pulse times (ps) of every junction of the bundled cells under their own
# stimulus and .tran settings.
BUNDLED_PULSES = {
    "soma2": {
        "bj1": [124.458243, 144.893222],
        "bj2": [128.15619, 159.597636],
        "b1": [151.97637, 182.734748],
        "b2": [161.881057],
        "bo1": [178.359154],
        "bout": [181.890484],
    },
    "soma3": {
        "bj1": [124.489268, 144.711088, 164.745024],
        "bj2": [127.7275, 150.216469, 172.065502],
        "b1": [154.004212, 198.711742],
        "b2": [203.242865],
        "bo1": [223.063912],
        "bout": [226.509099],
    },
    "jtl": {"b1": [104.449484], "b2": [107.674741]},
    "sm1": {"b0": [], "b1": []},
}


def bundled_text(cell, inputs=None):
    """A bundled netlist, with soma2's two-pulse input train cut to `inputs` pulses."""
    text = resources.files("fluxon.data").joinpath(f"netlists/{cell}.cir").read_text()
    if inputs is None:
        return text
    assert cell == "soma2" and "ptrain 120 20 2 " in text
    return text.replace("ptrain 120 20 2 ", f"ptrain 120 20 {inputs} ")


@pytest.fixture(scope="module")
def bundled_traces():
    return {cell: run_transient(parse_netlist(bundled_text(cell))) for cell in BUNDLED_PULSES}


class TestJunctionStatics:
    def test_subcritical_phase_settles(self):
        nl = parse_netlist("b1 1 0 ic=100u\ni1 0 1 dc 50u\n.tran 0.05 200")
        tr = run_transient(nl)
        assert tr.junction_phase["b1"][-1] == pytest.approx(math.asin(0.5), abs=1e-3)
        assert abs(tr.junction_voltage["b1"][-1]) < 1e-9

    def test_overdriven_matches_rk_oracle(self):
        # independent adaptive integrator of the single-junction ODE
        from scipy.integrate import solve_ivp

        ic, rn = 100e-6, 2.5
        cap = PHI0 / (2 * math.pi * ic * rn * rn)  # beta_c = 1
        drive = 150e-6

        def rhs(t, y):
            phi, v = y
            return [2 * math.pi / PHI0 * v, (drive - ic * math.sin(phi) - v / rn) / cap]

        sol = solve_ivp(rhs, (0.0, 500e-12), [0.0, 0.0], rtol=1e-10, atol=1e-14,
                        dense_output=True)
        ts = np.linspace(250e-12, 500e-12, 20000)
        v_oracle = float(np.mean(sol.sol(ts)[1]))

        nl = parse_netlist("b1 1 0 ic=100u\ni1 0 1 dc 150u\n.tran 0.02 500")
        tr = run_transient(nl, step=0.02)
        sel = tr.time_ps >= 250.0
        v_sim = float(np.mean(tr.junction_voltage["b1"][sel]))
        assert v_sim == pytest.approx(v_oracle, rel=0.01)

    def test_overdamped_matches_analytic_dc_branch(self):
        # strongly overdamped junction: mean V = Ic Rn sqrt((I/Ic)^2 - 1)
        nl = parse_netlist("b1 1 0 ic=100u rn=2.5 cap=1e-18\ni1 0 1 dc 150u\n.tran 0.01 400")
        tr = run_transient(nl, step=0.01)
        v = tr.junction_voltage["b1"]
        v_mean = float(np.mean(v[len(v) // 2 :]))
        analytic = 100e-6 * 2.5 * math.sqrt(1.5**2 - 1.0)
        assert v_mean == pytest.approx(analytic, rel=0.05)


class TestPassiveNetworks:
    def test_rl_decay(self):
        nl = parse_netlist("l1 1 0 10p ic=1m\nr1 1 0 1\n.tran 0.05 50")
        tr = run_transient(nl)
        ref = 1e-3 * np.exp(-tr.time_ps / 10.0)
        err = np.max(np.abs(tr.inductor_current["l1"] - ref)) / 1e-3
        assert err < 0.01

    def test_rl_step_response(self):
        # series R-L driven by a dc voltage: i = (V/R)(1 - exp(-tR/L))
        nl = parse_netlist("v1 1 0 dc 1m\nr1 1 2 2\nl1 2 0 10p\n.tran 0.05 40")
        tr = run_transient(nl)
        ref = 0.5e-3 * (1.0 - np.exp(-tr.time_ps * 2.0 / 10.0))
        err = np.max(np.abs(tr.inductor_current["l1"] - ref)) / 0.5e-3
        assert err < 0.01

    def test_rc_charging_via_junction_capacitance(self):
        # junction reduced to its capacitor (negligible ic, huge rn)
        nl = parse_netlist(
            "v1 1 0 dc 1m\nr1 1 2 2\nb1 2 0 ic=1e-9 rn=1e9 cap=0.5p\n.tran 0.05 10"
        )
        tr = run_transient(nl)
        ref = 1e-3 * (1.0 - np.exp(-tr.time_ps / 1.0))  # tau = RC = 1 ps
        err = np.max(np.abs(tr.node_voltage["2"] - ref)) / 1e-3
        assert err < 0.01

    def test_resistive_divider_dc(self):
        nl = parse_netlist("i1 0 1 dc 1m\nr1 1 0 1\nr2 1 0 1\n.tran 0.1 1")
        tr = run_transient(nl)
        assert tr.node_voltage["1"][-1] == pytest.approx(0.5e-3, rel=1e-9)


class TestSolverContract:
    def test_determinism_bit_identical(self):
        nl = parse_netlist("b1 1 0 ic=100u\ni1 0 1 dc 150u\n.tran 0.05 100")
        a = run_transient(nl)
        b = run_transient(nl)
        assert np.array_equal(a.junction_phase["b1"], b.junction_phase["b1"])
        assert np.array_equal(a.junction_voltage["b1"], b.junction_voltage["b1"])

    def test_step_limit(self):
        nl = parse_netlist("r1 1 0 1\ni1 0 1 dc 1m\n.tran 0.5 10")
        with pytest.raises(CircuitError):
            run_transient(nl)

    def test_missing_stop(self):
        nl = parse_netlist("r1 1 0 1")
        with pytest.raises(CircuitError):
            run_transient(nl)

    @pytest.mark.parametrize("stop", [math.nan, math.inf, -math.inf, -5.0])
    def test_stop_must_be_finite_and_not_negative(self, stop):
        nl = parse_netlist("r1 1 0 1\ni1 0 1 dc 1m")
        with pytest.raises(CircuitError, match="stop must be finite and >= 0 ps"):
            run_transient(nl, stop=stop)
        with pytest.raises(CircuitError, match="stop must be finite and >= 0 ps"):
            run_transients([nl, nl], stop=stop)

    def test_zero_stop_gives_the_initial_state(self):
        tr = run_transient(parse_netlist("l1 1 0 10p ic=1m\nr1 1 0 1"), stop=0.0, step=0.05)
        assert tr.time_ps.tolist() == [0.0] and tr.inductor_current["l1"].tolist() == [1e-3]

    def test_empty_netlist(self):
        with pytest.raises(CircuitError):
            run_transient(parse_netlist(""), stop=10.0, step=0.05)

    def test_singular_system(self):
        # inductor loop with a current source in series: no DC path for KCL
        nl = parse_netlist("v1 1 0 dc 1m\nv2 1 0 dc 2m\n.tran 0.1 1")
        with pytest.raises(CircuitError):
            run_transient(nl)

    def test_unknown_phase_print_target(self):
        nl = parse_netlist("b1 1 0 ic=100u\ni1 0 1 dc 50u\n.tran 0.1 1\n.print phi(bzz)")
        with pytest.raises(CircuitError, match="unknown junction 'bzz'"):
            run_transient(nl)

    def test_newton_counters_repeat_across_reruns(self):
        nl = parse_netlist("b1 1 0 ic=100u\ni1 0 1 dc 150u\n.tran 0.05 100")
        a, b = run_transient(nl), run_transient(nl)
        steps = len(a.time_ps) - 1
        assert (a.newton_iterations, a.newton_max_per_step) == (
            b.newton_iterations,
            b.newton_max_per_step,
        )
        assert steps <= a.newton_iterations <= steps * a.newton_max_per_step
        assert 1 <= a.newton_max_per_step <= transient.NEWTON_MAX_ITER

    def test_newton_error_reports_iterations_and_update(self, monkeypatch):
        monkeypatch.setattr(transient, "NEWTON_MAX_ITER", 1)
        nl = parse_netlist("b1 1 0 ic=100u\ni1 0 1 dc 150u\n.tran 0.05 10")
        with pytest.raises(NewtonError) as info:
            run_transient(nl)
        err = info.value
        assert err.time_ps == pytest.approx(0.05)
        assert err.iterations == 1
        assert err.update > 0.0
        assert "1 iterations" in str(err) and "last update" in str(err)

    def test_newton_error_reports_residual(self, monkeypatch):
        monkeypatch.setattr(transient, "NEWTON_FTOL", -1.0)  # never met
        nl = parse_netlist("b1 1 0 ic=100u\ni1 0 1 dc 150u\n.tran 0.05 10")
        with pytest.raises(NewtonError) as info:
            run_transient(nl)
        err = info.value
        assert err.time_ps == pytest.approx(0.05)
        assert err.iterations == transient.NEWTON_MAX_ITER
        # Newton has converged long before: both figures are round-off
        assert 0.0 <= err.residual < 1e-12 and 0.0 <= err.update < 1e-12
        assert "residual" in str(err)

    def test_junction_free_netlist_skips_newton(self):
        nl = parse_netlist("v1 1 0 dc 1m\nr1 1 2 2\nl1 2 0 10p\n.tran 0.05 40")
        tr = run_transient(nl)
        assert tr.junction_phase == {} and tr.junction_voltage == {}
        assert (tr.newton_iterations, tr.newton_max_per_step, tr.newton_residual) == (0, 0, 0.0)

    def test_requested_node_traces(self):
        nl = parse_netlist("r1 1 2 1\nr2 2 0 1\ni1 0 1 dc 1m\n.tran 0.1 1\n.print v(2)")
        tr = run_transient(nl)
        assert set(tr.node_voltage) == {"2"}
        with pytest.raises(CircuitError):
            run_transient(parse_netlist("r1 1 0 1\ni1 0 1 dc 1m\n.tran 0.1 1\n.print v(9)"))

    def test_phase_continuity(self):
        nl = parse_netlist("b1 1 0 ic=100u\ni1 0 1 dc 150u\n.tran 0.05 200")
        tr = run_transient(nl)
        assert np.max(np.abs(np.diff(tr.junction_phase["b1"]))) < math.pi


class TestBundledCells:
    @pytest.mark.parametrize("cell", sorted(BUNDLED_PULSES))
    def test_pulse_times_pinned(self, bundled_traces, cell):
        traces = bundled_traces[cell]
        assert set(traces.junction_phase) == set(BUNDLED_PULSES[cell])
        for junction, want in BUNDLED_PULSES[cell].items():
            got = detect_pulses_in(traces, junction).times
            assert got == pytest.approx(want, abs=1e-5), junction

    @pytest.mark.parametrize("cell", sorted(BUNDLED_PULSES))
    def test_voltage_integral_equals_phase_advance(self, bundled_traces, cell):
        traces = bundled_traces[cell]
        for junction, phase in traces.junction_phase.items():
            flux = np.trapezoid(traces.junction_voltage[junction], traces.time_ps * 1e-12)
            want = PHI0 / (2 * math.pi) * (phase[-1] - phase[0])
            assert flux == pytest.approx(want, rel=1e-5), junction

    @pytest.mark.parametrize("cell", sorted(BUNDLED_PULSES))
    def test_accepted_residual_within_tolerance(self, bundled_traces, cell):
        traces = bundled_traces[cell]
        assert 0.0 < traces.newton_residual <= transient.NEWTON_FTOL <= 1e-10

    @pytest.mark.parametrize("inputs", [1, 2])
    def test_soma2_takes_about_one_solve_per_step(self, inputs):
        # a converged step ends on its residual; a confirming second solve
        # on every step would double the count
        traces = run_transient(parse_netlist(bundled_text("soma2", inputs)))
        steps = len(traces.time_ps) - 1
        assert steps <= traces.newton_iterations <= 1.2 * steps

    @pytest.mark.parametrize("cell", sorted(BUNDLED_PULSES))
    def test_junction_jacobian_is_near_identity(self, bundled_traces, cell):
        # rho = ||Zp diag(Ic)||_inf of the Euler and trapezoidal operators,
        # the distance of the junction Jacobian from the identity
        assert 0.0 < bundled_traces[cell].newton_rho <= 6e-3

    # Updates per step of the chord iteration that kept inverse Jacobians
    # across steps: the Neumann update, with c taken afresh at each
    # predictor, needs no more.
    CHORD_UPDATES_PER_STEP = {"soma2": 1.1893, "soma3": 1.2255, "jtl": 1.0393, "sm1": 1.1355}

    @pytest.mark.parametrize("cell", sorted(BUNDLED_PULSES))
    def test_updates_per_step_at_most_the_chords(self, bundled_traces, cell):
        traces = bundled_traces[cell]
        steps = len(traces.time_ps) - 1
        assert steps <= traces.newton_iterations <= self.CHORD_UPDATES_PER_STEP[cell] * steps


class TestNeumannUpdate:
    # a junction biased far below Ic stays in its linear regime, where every
    # predictor is accurate and the update at it converges at once
    QUIET = "b1 1 0 ic=100u\ni1 0 1 dc 1u\n.tran 0.05 40"
    # rho = 3.04 on the Euler step: no capacitor, a 10 ohm shunt, 1 mA Ic
    STRONG = "b1 1 0 ic=1m rn=10 cap=0\ni1 0 1 dc 1u\n.tran 0.1 10"

    def test_a_quiet_junction_takes_one_update_per_step(self):
        tr = run_transient(parse_netlist(self.QUIET))
        steps = len(tr.time_ps) - 1
        assert (tr.newton_iterations, tr.newton_max_per_step) == (steps, 1)
        assert 0.0 < tr.newton_residual <= transient.NEWTON_FTOL

    def test_rho_is_the_largest_row_sum_of_either_operator(self):
        # one junction to ground: Zp = a / G, with a = 2 pi h / PHI0 and
        # G = 1/rn + C/h on the Euler step (the larger of the two)
        h, rn, cap, ic = 0.05e-12, 2.0, 0.5e-12, 100e-6
        nl = parse_netlist(f"b1 1 0 ic={ic} rn={rn} cap={cap}\ni1 0 1 dc 1u\n.tran 0.05 1")
        want = 2 * math.pi * h / PHI0 / (1 / rn + cap / h) * ic
        assert run_transient(nl).newton_rho == pytest.approx(want, rel=1e-12)

    def test_strong_coupling_is_a_circuit_error(self):
        strong = parse_netlist(self.STRONG)
        msg = r"^junction coupling rho = 3\.04 >= 1/2 at junction b1 on the step to t = 0\.1000 ps"
        with pytest.raises(CircuitError, match=msg + r": the Newton update may not contract$"):
            run_transient(strong)
        weak = scaled(strong, "b1.ic", 1e-3)
        assert run_transient(weak).newton_rho == pytest.approx(3.04e-3, rel=1e-2)
        # a lockstep batch names the variant, not the first of the group
        with pytest.raises(CircuitError, match=msg + r".* in variant 1 of the batch$"):
            run_transients([weak, strong])
        with pytest.raises(CircuitError, match=r" in variant 2 of the batch$"):
            run_transients([parse_netlist(TestBatchFailures.JUNCTION_FREE), weak, strong])

    def test_a_nan_critical_current_is_a_netlist_error(self):
        with pytest.raises(NetlistError, match=r"^junction b1: "):
            parse_netlist(self.STRONG).with_param("b1.ic", math.nan)


def reference_waveform_csv(traces, netlist) -> str:
    """The row-by-row writer that write_waveform_csv replaced."""
    cols = []
    requests = netlist.prints or tuple(("v", n) for n in traces.node_voltage)
    for kind, name in requests:
        trace = traces.node_voltage[name] if kind == "v" else traces.junction_phase[name]
        cols.append((f"{kind}({name})", trace))
    lines = [",".join(["time_ps"] + [c[0] for c in cols]) + "\n"]
    for i, t in enumerate(traces.time_ps):
        lines.append(",".join([repr(float(t))] + [repr(float(c[1][i])) for c in cols]) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("cell", ["soma2", "jtl"])
@pytest.mark.parametrize("own_prints", [True, False])
def test_waveform_csv_matches_row_writer(bundled_traces, cell, own_prints):
    text = resources.files("fluxon.data").joinpath(f"netlists/{cell}.cir").read_text()
    netlist = parse_netlist(text)
    if not own_prints:  # no .print: every node voltage
        netlist = dataclasses.replace(netlist, prints=())
    fh = io.StringIO()
    write_waveform_csv(fh, bundled_traces[cell], netlist)
    got = fh.getvalue().splitlines(keepends=True)
    want = reference_waveform_csv(bundled_traces[cell], netlist).splitlines(keepends=True)
    # name the first differing row: pytest's own diff of thousands of rows takes minutes
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b][:1]
    assert not bad, f"row {bad[0]}: {got[bad[0]]!r} != {want[bad[0]]!r}"
    assert len(got) == len(want)


# The dense reference stops Newton on its own update of the MNA unknowns.
NEWTON_RTOL = 1e-9


def dense_reference(netlist, stop):
    """Reference solver: Newton on the whole MNA matrix at every iteration.

    Same discretization as run_transient (Euler first step, trapezoidal
    after), assembled and solved densely; Newton stops when its update
    falls below NEWTON_RTOL relative.
    """
    from fluxon.circuit import CurrentSource, Inductor, Mutual, Resistor, VoltageSource

    step = netlist.tran_step
    h, fac_tr = step * 1e-12, 2.0 / (step * 1e-12)
    nodes = netlist.nodes
    devs = netlist.devices
    inductors = [d for d in devs if isinstance(d, Inductor)]
    junctions = [d for d in devs if isinstance(d, Junction)]
    branches = inductors + [d for d in devs if isinstance(d, VoltageSource)]
    br = {d.name: len(nodes) + k for k, d in enumerate(branches)}
    dim = len(nodes) + len(branches)

    def inc(d):
        e = np.zeros(dim)
        if d.np_ != "0":
            e[nodes.index(d.np_)] += 1.0
        if d.nm != "0":
            e[nodes.index(d.nm)] -= 1.0
        return e

    pj = np.array([inc(d) for d in junctions]).reshape(len(junctions), dim)
    ic = np.array([d.ic for d in junctions])
    cap = np.array([d.cap for d in junctions])
    x = np.zeros(dim)
    for L in inductors:
        x[br[L.name]] = L.ic
    phi, v, i_cap = np.zeros(len(junctions)), np.zeros(len(junctions)), np.zeros(len(junctions))
    out = [np.concatenate([x, phi, v])]
    for n in range(1, int(round(stop / step)) + 1):
        first, t = n == 1, n * step
        fac = fac_tr / 2 if first else fac_tr
        a = (2.0 if first else 1.0) * math.pi / PHI0 * h
        b = 0.0 if first else a
        A, rhs = np.zeros((dim, dim)), np.zeros(dim)
        for d in devs:
            if isinstance(d, Resistor):
                A += np.outer(inc(d), inc(d)) / d.r
            elif isinstance(d, Junction):
                A += np.outer(inc(d), inc(d)) * (1.0 / d.rn + fac * d.cap)
            elif isinstance(d, Inductor):
                k, e = br[d.name], inc(d)
                A[k] += e
                A[:, k] += e
                A[k, k] -= fac * d.l
                rhs[k] -= fac * d.l * x[k] + (0.0 if first else e @ x)
            elif isinstance(d, Mutual):
                k1, k2 = br[d.l1], br[d.l2]
                A[k1, k2] -= fac * d.m
                A[k2, k1] -= fac * d.m
                rhs[k1] -= fac * d.m * x[k2]
                rhs[k2] -= fac * d.m * x[k1]
            elif isinstance(d, CurrentSource):
                rhs -= inc(d) * d.waveform(t)
            elif isinstance(d, VoltageSource):
                k, e = br[d.name], inc(d)
                A[k] += e
                A[:, k] += e
                rhs[k] += d.waveform(t)
        hist_c = -fac * cap * v - (0.0 if first else i_cap)
        x_new = x.copy()
        for _ in range(transient.NEWTON_MAX_ITER):
            vn = pj @ x_new
            ph = phi + a * vn + b * v
            g = ic * np.cos(ph) * a
            x_next = np.linalg.solve(
                A + pj.T @ (g[:, None] * pj),
                rhs - pj.T @ (ic * np.sin(ph) - g * vn + hist_c),
            )
            delta = np.max(np.abs(x_next - x_new))
            x_new = x_next
            if delta <= NEWTON_RTOL * max(np.max(np.abs(x_new)), 1e-3):
                break
        vn = pj @ x_new
        phi = phi + a * vn + b * v
        i_cap = fac * cap * vn + hist_c
        v, x = vn, x_new
        out.append(np.concatenate([x, phi, v]))
    return np.array(out).T


class TestDenseReference:
    @pytest.mark.parametrize(
        "text,stop",
        [
            # junction between two non-ground nodes, a mutual pair and a
            # voltage source
            (
                "v1 in 0 pulse 10 2 0 2 1.034m\nlin in 1 2p\nb1 1 2 ic=250u\n"
                "b2 2 0 ic=200u\nl1 2 3 4p\nl2 4 0 6p\nk1 l1 l2 1p\nr1 3 0 1\n"
                "r2 4 0 2\nib 0 1 dc 150u\n.tran 0.05 60",
                60.0,
            ),
            # no junctions: the linear step alone
            ("v1 1 0 pulse 5 3 0 2 1m\nr1 1 2 2\nl1 2 0 10p\nl2 2 3 4p\nk1 l1 l2 2p\n"
             "r2 3 0 1\n.tran 0.05 40", 40.0),
            (bundled_text("jtl"), 150.0),
            (bundled_text("sm1"), 100.0),
            # every pulse of the soma cells falls before these stop times
            (bundled_text("soma2", 1), 250.0),
            (bundled_text("soma2", 2), 250.0),
            (bundled_text("soma3"), 300.0),
        ],
        ids=["mixed", "passive", "jtl", "sm1", "soma2x1", "soma2x2", "soma3"],
    )
    def test_traces_match_dense_newton(self, text, stop):
        nl = parse_netlist(text)
        ref = dense_reference(nl, stop)
        tr = run_transient(nl, stop=stop)
        branch0 = len(nl.nodes)
        n_j = len(tr.junction_phase)
        got = {}
        for k, name in enumerate(nl.nodes):
            if name in tr.node_voltage:
                got[f"v({name})"] = (tr.node_voltage[name], ref[k])
        for k, name in enumerate(tr.inductor_current):
            got[f"i({name})"] = (tr.inductor_current[name], ref[branch0 + k])
        for k, name in enumerate(tr.junction_phase):
            got[f"phi({name})"] = (tr.junction_phase[name], ref[-2 * n_j + k])
            got[f"vj({name})"] = (tr.junction_voltage[name], ref[-n_j + k])
        for label, (new, old) in got.items():
            scale = max(np.max(np.abs(old)), 1e-30)
            assert np.max(np.abs(new - old)) <= 1e-9 * scale, label


# --- lockstep batches ------------------------------------------------------

# Stops that keep every pulse of the bundled stimulus and cost little.
LOCKSTEP_STOPS = {"soma2": 250.0, "jtl": 150.0}


def scaled(netlist, selector, factor):
    _, _, nominal = netlist.resolve_selector(selector)
    return netlist.with_param(selector, nominal * factor)


@st.composite
def variant_stacks(draw):
    """1-4 variants of one cell: junction Ic and source amplitudes within
    +-30%, and with two or more variants one whose inductor differs, so
    that a second group forms."""
    cell = draw(st.sampled_from(sorted(LOCKSTEP_STOPS)))
    base = parse_netlist(bundled_text(cell))
    junctions = [d.name for d in base.devices if isinstance(d, Junction)]
    sources = [d.name for d in base.devices if hasattr(d, "waveform")]
    inductor = next(d.name for d in base.devices if d.name.startswith("l"))
    factor = st.floats(0.7, 1.3)
    k = draw(st.integers(1, 4))
    stack = []
    for _ in range(k):
        nl = scaled(base, f"{draw(st.sampled_from(junctions))}.ic", draw(factor))
        stack.append(scaled(nl, f"{draw(st.sampled_from(sources))}.amp", draw(factor)))
    if k > 1:
        odd = draw(st.integers(0, k - 1))
        stack[odd] = scaled(stack[odd], f"{inductor}.l", 1.1)
    return cell, stack


def trace_rows(traces):
    for kind in ("node_voltage", "junction_phase", "junction_voltage", "inductor_current"):
        for name, row in getattr(traces, kind).items():
            yield f"{kind}[{name}]", row


class TestLockstep:
    # derandomized: the Newton counters must match exactly, and fixed stacks
    # keep a round-off tie at NEWTON_FTOL from flaking between runs
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(variant_stacks())
    def test_batch_matches_solo_runs(self, case):
        cell, stack = case
        stop = LOCKSTEP_STOPS[cell]
        batch = run_transients(stack, stop=stop)
        assert len(batch) == len(stack)
        for nl, got in zip(stack, batch):  # input order
            want = run_transient(nl, stop=stop)
            assert np.array_equal(got.time_ps, want.time_ps)
            for (label, new), (_, old) in zip(trace_rows(got), trace_rows(want), strict=True):
                scale = max(np.max(np.abs(old)), 1e-30)
                assert np.max(np.abs(new - old)) <= 1e-9 * scale, label
            for j in want.junction_phase:
                assert len(detect_pulses_in(got, j)) == len(detect_pulses_in(want, j)), j
            assert (got.newton_iterations, got.newton_max_per_step) == (
                want.newton_iterations,
                want.newton_max_per_step,
            )
            assert got.newton_rho == pytest.approx(want.newton_rho, rel=1e-12)

    @pytest.mark.parametrize("cell", sorted(LOCKSTEP_STOPS))
    def test_batch_of_one_is_run_transient(self, cell):
        nl = parse_netlist(bundled_text(cell))
        (got,) = run_transients([nl], stop=LOCKSTEP_STOPS[cell])
        want = run_transient(nl, stop=LOCKSTEP_STOPS[cell])
        for (label, new), (_, old) in zip(trace_rows(got), trace_rows(want), strict=True):
            assert np.array_equal(new, old), label
        assert (got.newton_iterations, got.newton_max_per_step, got.newton_residual) == (
            want.newton_iterations,
            want.newton_max_per_step,
            want.newton_residual,
        )

    def test_junction_free_batch(self):
        nl = parse_netlist("v1 1 0 pulse 5 3 0 2 1m\nr1 1 2 2\nl1 2 0 10p\nl2 2 3 4p\n"
                           "k1 l1 l2 2p\nr2 3 0 1\n.tran 0.05 40")
        stack = [scaled(nl, "v1.amp", f) for f in (1.0, 2.0, 0.5)]
        for v, got in zip(stack, run_transients(stack)):
            want = run_transient(v)
            for (label, new), (_, old) in zip(trace_rows(got), trace_rows(want), strict=True):
                assert np.max(np.abs(new - old)) <= 1e-9 * max(np.max(np.abs(old)), 1e-30), label
            assert (got.newton_iterations, got.newton_max_per_step, got.newton_residual) == (0, 0, 0.0)

    def test_empty_batch(self):
        assert run_transients([]) == []


# An overdriven junction: its phase runs, and the Newton residual of a
# step rises and falls with it.
RUNNING_JUNCTION = "b1 1 0 ic=100u\ni1 0 1 dc 150u\n.tran 0.05 20"


class TestWorstResidual:
    def test_residual_is_worst_step_not_last(self):
        # a run to n steps reports the worst residual of steps 1..n, so the
        # figure cannot fall as the run gets longer
        nl = parse_netlist(RUNNING_JUNCTION)
        seen = [run_transient(nl, stop=n * 0.05).newton_residual for n in range(1, 121, 2)]
        seen.append(run_transient(nl).newton_residual)
        assert all(b >= a for a, b in zip(seen, seen[1:]))
        assert 0.0 < seen[-1] <= transient.NEWTON_FTOL

    def test_residual_is_worst_step_per_variant(self):
        base = parse_netlist(RUNNING_JUNCTION)
        stack = [scaled(base, "b1.ic", f) for f in (1.0, 0.8, 1.2)]
        runs = [run_transients(stack, stop=n * 0.05) for n in (*range(1, 121, 2), 400)]
        for v in range(len(stack)):
            seen = [batch[v].newton_residual for batch in runs]
            assert all(b >= a for a, b in zip(seen, seen[1:])), v
            assert 0.0 < seen[-1] <= transient.NEWTON_FTOL


class TestBatchFailures:
    JUNCTION_FREE = "v1 1 0 dc 1m\nr1 1 2 2\nl1 2 0 10p\n.tran 0.05 10"
    JUNCTION = "b1 1 0 ic=100u\ni1 0 1 dc 150u\n.tran 0.05 10"

    def test_newton_error_names_variant(self, monkeypatch):
        monkeypatch.setattr(transient, "NEWTON_FTOL", -1.0)  # never met
        junction = parse_netlist(self.JUNCTION)
        with pytest.raises(NewtonError) as solo:
            run_transient(junction)
        assert solo.value.variant is None and "variant" not in str(solo.value)
        assert str(solo.value).endswith(")")  # the message ends on its figures
        with pytest.raises(NewtonError) as first:
            run_transients([junction, scaled(junction, "b1.ic", 1.1)])
        assert first.value.variant == 0
        assert str(first.value) == f"{solo.value} in variant 0 of the batch"
        with pytest.raises(NewtonError) as second:
            run_transients([parse_netlist(self.JUNCTION_FREE), junction])
        assert second.value.variant == 1
        assert str(second.value).endswith(" in variant 1 of the batch")

    def test_newton_error_names_a_lockstep_variant(self, monkeypatch):
        # every variant of the junction group runs out of passes; the error
        # names the group's first variant by its index in the whole batch
        monkeypatch.setattr(transient, "NEWTON_FTOL", -1.0)  # never met
        junction = parse_netlist(self.JUNCTION)
        stack = [parse_netlist(self.JUNCTION_FREE), junction, scaled(junction, "b1.ic", 1.1)]
        with pytest.raises(NewtonError) as info:
            run_transients(stack)
        err = info.value
        assert (err.variant, err.time_ps, err.iterations) == (1, 0.05, transient.NEWTON_MAX_ITER)
        assert str(err).endswith(" in variant 1 of the batch")

    def test_newton_error_names_the_failing_later_variant(self, monkeypatch):
        # two passes: the quiet variant converges on every step, the driven
        # one runs out of passes once its junction switches
        monkeypatch.setattr(transient, "NEWTON_MAX_ITER", 2)
        quiet = parse_netlist("b1 1 0 ic=100u\ni1 0 1 dc 1u\n.tran 0.05 40")
        driven = parse_netlist("b1 1 0 ic=100u\ni1 0 1 dc 150u\n.tran 0.05 40")
        assert transient.same_lockstep_group(quiet, driven)
        for stack, variant in (([quiet, driven], 1), ([driven, quiet], 0)):
            with pytest.raises(NewtonError) as info:
                run_transients(stack)
            assert (info.value.variant, info.value.time_ps) == (variant, 6.5)


# --- solver properties on random small RCSJ circuits -------------------------


@st.composite
def rcsj_circuits(draw):
    """1-4 junctions on a chain of nodes, each to ground or to the node
    before it; the chain's links are inductors or resistors, some nodes
    get a shunt resistor, and one current source, dc or a pulse, drives
    one node. Junction rn and cap are drawn or left to their defaults."""
    n_j = draw(st.integers(1, 4))
    lines = []
    for k in range(1, n_j + 1):
        other = 0 if k == 1 or draw(st.booleans()) else k - 1
        fields = [f"ic={draw(st.integers(50, 300))}u"]
        if draw(st.booleans()):
            fields.append(f"rn={draw(st.floats(0.5, 10.0)):.3f}")
        if draw(st.booleans()):
            fields.append(f"cap={draw(st.floats(0.05, 2.0)):.3f}p")
        lines.append(f"b{k} {k} {other} " + " ".join(fields))
        if k > 1:
            link = draw(st.sampled_from(["l", "r"]))
            value = f"{draw(st.floats(0.5, 10.0)):.3f}" + ("p" if link == "l" else "")
            lines.append(f"{link}{k} {k - 1} {k} {value}")
        if draw(st.booleans()):
            lines.append(f"rs{k} {k} 0 {draw(st.floats(0.5, 20.0)):.3f}")
    amp = draw(st.integers(0, 600))
    shape = draw(st.sampled_from([f"dc {amp}u", f"pulse 5 2 10 2 {amp}u"]))
    lines.append(f"i1 0 {draw(st.integers(1, n_j))} {shape}")
    step = draw(st.sampled_from([0.05, 0.1]))
    stop = draw(st.sampled_from([10, 20, 40]))
    lines.append(f".tran {step} {stop}")
    return "\n".join(lines)


class TestSolverProperties:
    @settings(max_examples=40, deadline=None)
    @given(rcsj_circuits())
    def test_converged_runs_keep_the_solver_contract(self, text):
        nl = parse_netlist(text)
        try:
            tr = run_transient(nl)
        except CircuitError:
            return  # a numeric failure is reported, never returned
        steps = len(tr.time_ps) - 1
        for _, row in trace_rows(tr):
            assert np.all(np.isfinite(row))
        assert 0.0 <= tr.newton_residual <= transient.NEWTON_FTOL
        assert steps <= tr.newton_iterations <= steps * tr.newton_max_per_step
        assert 0.0 < tr.newton_rho < 0.5
        t = tr.time_ps[1:] * 1e-12
        for name, phase in tr.junction_phase.items():
            # the trapezoidal phase update makes this exact from step 2 on
            got = 2 * math.pi / PHI0 * np.trapezoid(tr.junction_voltage[name][1:], t)
            want = phase[-1] - phase[1]
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9), name

    @settings(max_examples=10, deadline=None)
    @given(rcsj_circuits(), st.integers(1, 3))
    def test_forced_newton_error_carries_time_and_iterations(self, text, max_iter):
        nl = parse_netlist(text)
        with mock.patch.object(transient, "NEWTON_FTOL", -1.0), \
                mock.patch.object(transient, "NEWTON_MAX_ITER", max_iter):
            with pytest.raises(NewtonError) as info:
                run_transient(nl)
        err = info.value
        assert (err.time_ps, err.iterations, err.variant) == (nl.tran_step, max_iter, None)
        assert math.isfinite(err.update) and math.isfinite(err.residual)
