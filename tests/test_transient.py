import dataclasses
import io
import math
import re
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
    detect_pulses,
    detect_pulses_in,
    margins,
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
        "bj1": [124.466749, 144.90346],
        "bj2": [128.166701, 159.60211],
        "b1": [151.981425, 182.724425],
        "b2": [161.875261],
        "bo1": [178.353175],
        "bout": [181.873293],
    },
    "soma3": {
        "bj1": [124.49759, 144.720872, 164.752788],
        "bj2": [127.732951, 150.219488, 172.054275],
        "b1": [154.008045, 198.699973],
        "b2": [203.226539],
        "bo1": [223.033741],
        "bout": [226.472794],
    },
    "jtl": {"b1": [104.458277], "b2": [107.680024]},
    "sm1": {"b0": [], "b1": []},
}


def bundled_text(cell, inputs=None):
    """A bundled netlist, with a soma's input pulse train set to `inputs` pulses."""
    text = resources.files("fluxon.data").joinpath(f"netlists/{cell}.cir").read_text()
    if inputs is None:
        return text
    text, n = re.subn(r"ptrain 120 20 \d+ ", f"ptrain 120 20 {inputs} ", text)
    assert n == 1, cell
    return text


@pytest.fixture(scope="module")
def bundled_traces():
    return {cell: run_transient(parse_netlist(bundled_text(cell))) for cell in BUNDLED_PULSES}


# The steps the bundled cells took before their .tran steps became 0.4 ps,
# where the predictor pins below were measured.
MEASURED_STEP = {"soma2": 0.1, "soma3": 0.1, "jtl": 0.05, "sm1": 0.1}


@pytest.fixture(scope="module")
def measured_traces():
    return {cell: run_transient(parse_netlist(bundled_text(cell)), step=MEASURED_STEP[cell])
            for cell in BUNDLED_PULSES}


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
        # two voltage sources in parallel fix the node but neither branch current
        nl = parse_netlist("v1 1 0 dc 1m\nv2 1 0 dc 2m\n.tran 0.1 1")
        with pytest.raises(CircuitError, match="^singular system matrix: no unique solution for "
                                               "the currents of v1 and v2$"):
            run_transient(nl)

    @pytest.mark.parametrize("text,where", [
        ("i1 0 1 dc 10u\nr1 2 3 1\nr2 1 0 1", "nodes 2 and 3"),  # an island with no path to ground
        ("i1 0 1 dc 10u\nv1 2 3 dc 1m\nv2 2 3 dc 1m", "nodes 1, 2 and 3, and the currents of v1 and v2"),
    ])
    def test_singular_system_names_its_null_space(self, text, where):
        with pytest.raises(CircuitError, match=f"^singular system matrix: no unique solution for {where}$"):
            run_transient(parse_netlist(text + "\n.tran 0.1 1"))

    @pytest.mark.parametrize("tran", ["1e-300 5", "1e-16 5"])
    def test_unbuildable_time_grid(self, tran):
        # 5e300 steps is past numpy's size limit, 5e16 past any allocation
        with pytest.raises(CircuitError, match=r"^a 1e-\d+ ps step to 5.0 ps makes 5e\+\d+ steps, too many"):
            run_transient(parse_netlist(f"r1 1 0 1\ni1 0 1 dc 1m\n.tran {tran}"))

    def test_a_step_that_slips_a_junction_twice_is_a_circuit_error(self):
        # 9.56 kV across a junction slips it about 5e5 times a 0.1 ps step
        fast = parse_netlist("b1 3 0 ic=100u\nr1 3 0 1\nv3 3 0 pulse 1 0.5 1 0.5 9.56e3\n.tran 0.1 5")
        msg = r"^junction b1: phase slips more than once on the step to t = 1\.1000 ps"
        with pytest.raises(CircuitError, match=msg + "$"):
            run_transient(fast)
        slow = scaled(fast, "v3.amp", 1e-7)  # 0.96 mV: 0.3 rad a step
        assert len(run_transient(slow).pulses["b1"]) > 0
        with pytest.raises(CircuitError, match=msg + " in variant 1 of the batch$"):
            run_transients([slow, fast], record=False)

    @pytest.mark.parametrize("text", [
        "i1 0 1 dc 1e300\nr1 1 0 1e300",  # 1e600 V at node 1
        # the same through a resistor into a junction: its Newton iteration fails on the infinite node
        "i1 0 1 dc 1e300\nr1 1 0 1e300\nr2 1 2 1e300\nb1 2 0 ic=100u",
    ], ids=["linear", "newton"])
    def test_a_state_that_overflows_is_a_circuit_error(self, text):
        huge = parse_netlist(text + "\n.tran 0.1 5")
        msg = r"^the state is not finite on the step to t = 0\.1000 ps at node 1"
        with pytest.raises(CircuitError, match=msg + "$"):
            run_transient(huge)
        with pytest.raises(CircuitError, match=msg + " in variant 1 of the batch$"):
            run_transients([scaled(huge, "i1.dc", 1e-300), huge], record=False)

    def test_an_operator_that_overflows_is_a_circuit_error(self):
        # the predictor's h^2/2 phi'' term divides by the junction capacitance
        tiny = parse_netlist("b1 1 0 ic=1e-4 cap=1e-320\n.tran 0.1 5")
        with pytest.raises(CircuitError, match=r"^the trapezoidal operator of a 0\.1 ps step is not finite "
                                               r"in the rows of junction b1: a device value is out of range$"):
            run_transient(tiny)
        # a sum of stamps that overflows, before the system is solved
        with pytest.raises(CircuitError, match=r"^the backward-Euler operator of a 0\.1 ps step is not finite "
                                               r"in the rows of node 1: "):
            run_transient(parse_netlist("r1 1 0 1e-308\nr2 1 0 1e-308\ni1 0 1 dc 1\n.tran 0.1 5"))

    def test_unknown_phase_print_target(self):
        # caught when the netlist is built, before any transient, naming the .print line
        with pytest.raises(NetlistError, match="^line 4: print request for unknown junction 'bzz'$"):
            parse_netlist("b1 1 0 ic=100u\ni1 0 1 dc 50u\n.tran 0.1 1\n.print phi(bzz)")

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

    def test_lean_run_fields_are_typed_errors(self):
        nl = parse_netlist("b1 1 0 ic=100u\nl1 1 2 2p\nr1 2 0 1\ni1 0 1 dc 150u\n.tran 0.05 20")
        (tr,) = run_transients([nl], record=False)
        assert set(tr.node_voltage) == {"1", "2"} and len(tr.pulses["b1"]) > 0
        for field, key in (("junction_phase", "b1"), ("junction_voltage", "b1"), ("inductor_current", "l1")):
            with pytest.raises(CircuitError, match=rf"{field}\['{key}'\] is not recorded.*record=False") as info:
                getattr(tr, field)[key]
            assert not isinstance(info.value, KeyError)

    def test_requested_node_traces(self):
        nl = parse_netlist("r1 1 2 1\nr2 2 0 1\ni1 0 1 dc 1m\n.tran 0.1 1\n.print v(2)")
        tr = run_transient(nl)
        assert set(tr.node_voltage) == {"2"}
        with pytest.raises(NetlistError, match="^line 4: print request for unknown node '9'$"):
            parse_netlist("r1 1 0 1\ni1 0 1 dc 1m\n.tran 0.1 1\n.print v(9)")

    def test_phase_only_prints_keep_no_node_rows(self):
        nl = parse_netlist(bundled_text("soma2"))
        phi_only = dataclasses.replace(nl, prints=(("phi", "bout"), ("phi", "b2")))
        recorded = run_transient(phi_only)
        (lean,) = run_transients([phi_only], record=False)
        assert recorded.node_voltage == {} and lean.node_voltage == {}
        assert lean.pulses == recorded.pulses and len(recorded.pulses["bout"]) == 1
        got, want = io.StringIO(), io.StringIO()
        write_waveform_csv(got, recorded, phi_only)
        write_waveform_csv(want, run_transient(nl), phi_only)  # soma2's own prints keep v(25)
        assert got.getvalue() == want.getvalue()
        assert got.getvalue().startswith("time_ps,phi(bout),phi(b2)\n")

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
    def test_recorded_pulses_are_read_not_searched(self, bundled_traces, cell):
        traces = bundled_traces[cell]
        bare = dataclasses.replace(traces, junction_phase={})
        for junction, phase in traces.junction_phase.items():
            got = detect_pulses_in(bare, junction)
            assert got == detect_pulses_in(traces, junction), junction
            assert got == detect_pulses(traces.time_ps, phase, node=junction), junction

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
        # on every step would double the count. From the second-order
        # predictor, all but a few steps converge in one update (the
        # forward-Euler predictor took 1.049 and 1.150 a step); at 0.1 ps
        traces = run_transient(parse_netlist(bundled_text("soma2", inputs)), step=MEASURED_STEP["soma2"])
        steps = len(traces.time_ps) - 1
        assert steps <= traces.newton_iterations <= 1.002 * steps

    @pytest.mark.parametrize("cell", ["soma2", "soma3", "jtl"])
    def test_pulse_times_converge_at_second_order(self, cell):
        # the trapezoidal rule is second order, so against a run at a quarter
        # of the bundled step h, halving h cuts the pulse-time error by about
        # 5x (4.5, 4.7 and 5.0 measured); the counts do not move
        nl = parse_netlist(bundled_text(cell))
        runs = [run_transients([nl], step=nl.tran_step / k, record=False)[0].pulses for k in (1, 2, 4)]
        ref = runs[-1]
        assert all(len(ts) > 0 for ts in ref.values())
        for run in runs:
            assert {j: len(ts) for j, ts in run.items()} == {j: len(ts) for j, ts in ref.items()}
        err = [max(abs(a - b) for j in ref for a, b in zip(run[j], ref[j])) for run in runs[:2]]
        assert 2.5 <= err[0] / err[1] <= 8.0

    # criterion 7's input counts, and jtl's own stimulus
    BUDGET_INPUTS = {"soma2": (1, 2), "soma3": (2, 3), "jtl": (None,)}

    @pytest.mark.parametrize("cell", sorted(BUDGET_INPUTS))
    def test_pulse_times_within_the_step_budget(self, cell):
        # the bundled step's error budget: against runs at a sixteenth of the
        # step, every junction keeps its pulse count and every pulse time
        # lies within 0.05 ps. At 0.4 ps the worst errors were 0.011 and
        # 0.018 ps (soma2 x1, x2), 0.010 and 0.038 ps (soma3 x2, x3) and
        # 0.009 ps (jtl)
        stack = [parse_netlist(bundled_text(cell, n)) for n in self.BUDGET_INPUTS[cell]]
        step = stack[0].tran_step
        coarse, fine = (run_transients(stack, step=h, record=False) for h in (step, step / 16))
        for got, want in zip(coarse, fine, strict=True):
            assert sum(map(len, want.pulses.values())) > 0
            assert {j: len(ts) for j, ts in got.pulses.items()} == {j: len(ts) for j, ts in want.pulses.items()}
            for j, times in want.pulses.items():
                assert got.pulses[j] == pytest.approx(times, abs=0.05), j

    @pytest.mark.parametrize("cell", sorted(BUNDLED_PULSES))
    def test_junction_jacobian_is_near_identity(self, measured_traces, cell):
        # rho = ||Zp diag(Ic)||_inf of the Euler and trapezoidal operators,
        # the distance of the junction Jacobian from the identity
        assert 0.0 < measured_traces[cell].newton_rho <= 6e-3

    # Updates per step with the second-order predictor at MEASURED_STEP.
    # The chord iteration that kept inverse Jacobians across steps took
    # 1.1893, 1.2255, 1.0393 and 1.1355; the Neumann update from the
    # forward-Euler predictor 1.1498, 1.1800, 1.0233 and 1.0860.
    UPDATES_PER_STEP = {"soma2": 1.0014, "soma3": 1.0028, "jtl": 1.0, "sm1": 1.0}

    @pytest.mark.parametrize("cell", sorted(BUNDLED_PULSES))
    def test_updates_per_step_at_most_the_chords(self, measured_traces, cell):
        traces = measured_traces[cell]
        steps = len(traces.time_ps) - 1
        assert steps <= traces.newton_iterations <= self.UPDATES_PER_STEP[cell] * steps

    # At the bundled 0.4 ps step the predictor reaches four times as far
    # and rho is 13 to 50 times larger: a step takes more updates, but a
    # run takes a quarter of the steps.
    BUNDLED_UPDATES_PER_STEP = {"soma2": 1.2642, "soma3": 1.3371, "jtl": 1.1747, "sm1": 1.504}

    @pytest.mark.parametrize("cell", sorted(BUNDLED_PULSES))
    def test_updates_and_rho_at_the_bundled_step(self, bundled_traces, cell):
        traces = bundled_traces[cell]
        steps = len(traces.time_ps) - 1
        assert steps <= traces.newton_iterations <= self.BUNDLED_UPDATES_PER_STEP[cell] * steps
        assert 0.0 < traces.newton_rho <= 0.071

    @staticmethod
    def margin_batch_extra_updates(step=None, ftol=None):
        """The extra updates beyond one a step of each variant of the default
        ib.amp grid's first batch: 19 lean soma2 variants from -90% to +90%."""
        nl = parse_netlist(bundled_text("soma2"))
        grid = [margins.BOUND * k / margins.PARTS for k in range(1, margins.PARTS)] + [margins.BOUND]
        amp = nl.resolve_selector("ib.amp")[2]
        stack = [nl.with_param("ib.amp", amp * (1.0 + f)) for f in (0.0, *(-f for f in grid), *grid)]
        runs = run_transients(stack, step=step, record=False, ftol=ftol)
        extra = [tr.newton_iterations - (len(tr.time_ps) - 1) for tr in runs]
        assert len(extra) == 19 and min(extra) >= 0
        return extra

    def test_margin_batch_takes_few_extra_updates(self):
        # at 0.1 ps; 11,224 with the forward-Euler predictor
        assert sum(self.margin_batch_extra_updates(MEASURED_STEP["soma2"])) <= 300

    def test_margin_batch_extra_updates_at_the_bundled_step(self):
        assert sum(self.margin_batch_extra_updates()) <= 5510

    def test_margin_batch_extra_updates_at_the_probe_tolerance(self):
        # what a margin scan's first batch runs: 11 against 5,510 at NEWTON_FTOL
        assert sum(self.margin_batch_extra_updates(ftol=transient.PROBE_FTOL)) <= 11

    def test_each_run_carries_the_tolerance_it_solved_to(self, bundled_traces):
        probes = []
        pass_test = lambda tr: probes.append(tr) or len(detect_pulses_in(tr, "bout")) == 1
        margins.margin_scan(parse_netlist(bundled_text("soma2")), "ib.amp", pass_test, resolution=0.1)
        assert len(probes) == 19
        for tr in probes:
            assert tr.newton_ftol == transient.PROBE_FTOL and 0.0 < tr.newton_residual <= tr.newton_ftol
        for cell, tr in bundled_traces.items():
            assert tr.newton_ftol == transient.NEWTON_FTOL, cell

    # criterion 7's input counts of the somas, and the other cells' own stimuli
    PROBE_INPUTS = [("soma2", 1), ("soma2", 2), ("soma3", 2), ("soma3", 3), ("jtl", None), ("sm1", None)]
    # Newton updates a step of their lean runs at NEWTON_FTOL: 1.3310, 1.4034,
    # 1.3854, 1.5156, 1.2924 and 1.5040. At PROBE_FTOL every step takes one.
    PROBE_UPDATES_PER_STEP = 1.0

    @pytest.mark.parametrize("cell, inputs", PROBE_INPUTS)
    def test_probe_tolerance_keeps_the_pulse_budget(self, cell, inputs):
        # PROBE_FTOL's derivation: a pulse at t moves by at most
        # 2 N delta / (dphi/dt), N = t / step steps before it, against a run
        # at NEWTON_FTOL (whose own share is 1e-5 of it), and that bound fits
        # in the slack the 0.05 ps step budget leaves beside the 0.0384 ps
        # the step takes. The worst bound is 0.0067 ps (soma2 x1's b1); the
        # worst difference measured 2.7e-7 ps (soma3 x3's bo1)
        nl = parse_netlist(bundled_text(cell, inputs))
        (probe,), (want,) = (run_transients([nl], record=False, ftol=tol) for tol in (transient.PROBE_FTOL, None))
        recorded = run_transient(nl)
        assert {j: len(ts) for j, ts in probe.pulses.items()} == {j: len(ts) for j, ts in want.pulses.items()}
        for j, times in want.pulses.items():
            slope = 2 * math.pi / PHI0 * 1e-12 * np.interp(times, recorded.time_ps, recorded.junction_voltage[j])
            assert np.all(slope > 0.0), j  # phases rise through their crossings
            bound = 2 * np.ceil(np.array(times) / nl.tran_step) * (transient.PROBE_FTOL + transient.NEWTON_FTOL) / slope
            assert np.all(bound <= 0.05 - 0.0384), j
            assert np.all(np.abs(np.subtract(probe.pulses[j], times)) <= bound), j
        steps = len(probe.time_ps) - 1
        assert steps <= probe.newton_iterations <= self.PROBE_UPDATES_PER_STEP * steps


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


def samples(netlist):
    """The samples of a recorded run on the netlist's .tran grid."""
    return round(netlist.tran_stop / netlist.tran_step) + 1


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


def assert_matches_solo(got, want):
    """A recorded variant of a batch against its solo run: traces to
    round-off, the same pulse counts and Newton update counts."""
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
            assert_matches_solo(got, run_transient(nl, stop=stop))

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

    def test_each_group_logs_its_solver_time(self, caplog):
        nl = parse_netlist(RUNNING_JUNCTION)
        kicked = parse_netlist(RUNNING_JUNCTION.replace("dc 150u", "pulse 5 0 100 0 2m"))
        stack = [nl, scaled(nl, "b1.ic", 1.1), kicked, parse_netlist(TestBatchFailures.JUNCTION_FREE)]
        with caplog.at_level("DEBUG", logger="fluxon.transient"):
            runs = run_transients(stack)
            run_transients([parse_netlist(TestQuietEnd.QUIET_DC)], record=False)
        lines = [r.getMessage() for r in caplog.records if r.name == "fluxon.transient"]
        assert [line.split(" in ")[0] for line in lines] == [
            "transient: 3 variants, 400 of 400 steps",
            "transient: 1 variants, 200 of 200 steps",
            "transient: 1 variants, 128 of 800 steps",  # a lean run that ended quiet
        ]
        # the kicked variant's edge costs one update beyond the one per step
        assert sum(tr.newton_iterations for tr in runs[:3]) == 3 * 400 + 1
        assert [line.split(" µs/step)")[1] for line in lines] == [
            ", 1 extra Newton updates", ", 0 extra Newton updates", ", 0 extra Newton updates"]


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
        # one runs out of passes on the step its 2 mA edge lands in
        monkeypatch.setattr(transient, "NEWTON_MAX_ITER", 2)
        quiet = parse_netlist("b1 1 0 ic=100u\ni1 0 1 pulse 5 0 100 0 1u\n.tran 0.05 40")
        driven = parse_netlist("b1 1 0 ic=100u\ni1 0 1 pulse 5 0 100 0 2m\n.tran 0.05 40")
        assert transient._lockstep_key(quiet) == transient._lockstep_key(driven)
        for stack, variant in (([quiet, driven], 1), ([driven, quiet], 0)):
            with pytest.raises(NewtonError) as info:
                run_transients(stack)
            assert info.value.variant == variant
            assert info.value.time_ps == pytest.approx(5.05)


# --- solver properties on random small RCSJ circuits -------------------------


@st.composite
def rcsj_circuits(draw):
    """1-4 junctions on a chain of nodes, each to ground or to the node
    before it; the chain's links are inductors or resistors, some nodes
    get a shunt resistor, and one current source drives one node: dc, an
    early pulse, a pulse whose last edge ends the run, or a sine, which
    is never constant. Junction rn and cap are drawn or left to their
    defaults."""
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
    step = draw(st.sampled_from([0.05, 0.1]))
    stop = draw(st.sampled_from([10, 20, 40]))
    amp = draw(st.integers(0, 600))
    shape = draw(st.sampled_from([
        f"dc {amp}u",
        f"pulse 5 2 10 2 {amp}u",
        f"pulse {stop - 3} 1 1 1 {amp}u",
        f"sin {amp}u {draw(st.integers(1, 300))}u {draw(st.sampled_from([7, 25, 60]))}",
    ]))
    lines.append(f"i1 0 {draw(st.integers(1, n_j))} {shape}")
    lines.append(f".tran {step} {stop}")
    return "\n".join(lines)


def assert_lean_matches(stack, lean, recorded):
    """The record=False runs of `stack` against its recorded runs.

    A lean variant ends at the end of its first quiet chunk. Up to that
    step its time grid, node rows and four Newton counters equal, bit for
    bit, those of a recorded run of the same stack stopped there; its
    pulses equal the full-length recorded run's.
    """
    cut = {}  # recorded runs of the stack, by stop time
    for v, (got, want) in enumerate(zip(lean, recorded, strict=True)):
        stop = float(got.time_ps[-1])
        if stop not in cut:
            cut[stop] = run_transients(stack, stop=stop)
        short = cut[stop][v]
        assert len(got.time_ps) <= len(want.time_ps)
        assert np.array_equal(got.time_ps, short.time_ps)
        assert got.node_voltage.keys() == short.node_voltage.keys() == want.node_voltage.keys()
        for name, row in short.node_voltage.items():
            assert np.array_equal(got.node_voltage[name], row), name
        counters = ("newton_iterations", "newton_max_per_step", "newton_residual", "newton_rho")
        assert [getattr(got, c) for c in counters] == [getattr(short, c) for c in counters]
        assert got.pulses.keys() == want.pulses.keys() == want.junction_phase.keys()
        for j, phase in want.junction_phase.items():
            assert got.pulses[j] == want.pulses[j] == detect_pulses(want.time_ps, phase).times, j
            assert detect_pulses_in(got, j) == detect_pulses_in(want, j), j


def assert_ends_only_when_sources_hold(netlist, lean):
    """A lean run that ended early did so at a chunk's end, with every
    source at its final sample from that chunk's first step on."""
    n_steps = int(round(netlist.tran_stop / netlist.tran_step))
    end = len(lean.time_ps) - 1
    if end == n_steps:
        return
    assert end % CHUNK == 0
    grid = np.arange(n_steps + 1) * netlist.tran_step
    for d in netlist.devices:
        if hasattr(d, "waveform"):
            wave = d.waveform(grid)
            assert np.all(wave[end - CHUNK + 1:] == wave[-1]), d.name


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
        assert steps == round(nl.tran_stop / nl.tran_step)  # a recorded run never ends early
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

    @settings(max_examples=30, deadline=None)
    @given(rcsj_circuits())
    def test_lean_run_gives_what_the_recorded_run_gives(self, text):
        nl = parse_netlist(text)

        def outcome(record):
            try:
                return run_transients([nl], record=record)[0]
            except CircuitError as exc:
                return str(exc)

        got, want = outcome(False), outcome(True)
        if isinstance(want, str):
            assert got == want  # the same failure, reported the same way
        else:
            assert_lean_matches([nl], [got], [want])
            assert_ends_only_when_sources_hold(nl, got)
            if " sin " in text:
                assert len(got.time_ps) == len(want.time_ps)

    def test_lean_soma2_batch_gives_what_the_recorded_batch_gives(self, b2ic_stack):
        stack, lean = b2ic_stack
        assert_lean_matches(stack, lean, run_transients(stack))
        assert sum(len(tr.pulses["bout"]) for tr in lean) > 0
        assert all(len(tr.time_ps) < samples(nl) for nl, tr in zip(stack, lean))  # every variant ended quiet

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


@st.composite
def random_netlists(draw):
    """Text of 2-10 devices drawn from R, L, B, K, I and V between ground and
    2-4 nodes, with values from 1e-300 to 9.99e300 (about half of them from
    1e-15 to 9.99e3, where the cells' values lie) and a step from 0.05 ps to
    MAX_STEP_PS: floating islands, loops of sources, coupled inductors,
    junctions past the Newton update's reach and drives that slip a
    junction many times a step all come up, and some texts do not parse."""
    nodes = [str(k) for k in range(draw(st.integers(2, 4)) + 1)]  # "0" is ground
    value = st.builds("{:.3g}e{}".format, st.floats(1.0, 9.99), st.one_of(st.integers(-15, 3), st.integers(-300, 300)))
    lines, inductors = [], []
    for k in range(draw(st.integers(2, 10))):
        kind = draw(st.sampled_from("rrlbbkiv"))
        a, b = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
        if kind == "k":
            if len(inductors) > 1:
                l1, l2 = draw(st.permutations(inductors))[:2]
                lines.append(f"k{k} {l1} {l2} {draw(value)}")
        elif kind == "b":
            fields = [f"ic={draw(value)}"] + [f"{f}={draw(value)}" for f in ("rn", "cap") if draw(st.booleans())]
            lines.append(f"b{k} {a} {b} " + " ".join(fields))
        elif kind in "iv":
            shape = draw(st.sampled_from(["dc {}", "pulse 1 0.5 1 0.5 {}", "sin 0 {} 3"]))
            lines.append(f"{kind}{k} {a} {b} " + shape.format(draw(value)))
        else:
            lines.append(f"{kind}{k} {a} {b} {draw(value)}")
            inductors += [f"l{k}"] if kind == "l" else []
    step = draw(st.sampled_from([0.05, 0.1, 0.25, transient.MAX_STEP_PS]))
    lines.append(f".tran {step} {draw(st.sampled_from([0.1, 1, 5]))}")
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(random_netlists())
def test_a_parsed_netlist_runs_or_raises_a_circuit_error(text):
    # warnings are errors under pytest, so this also rules out numpy's
    # overflow and invalid-value warnings
    try:
        nl = parse_netlist(text)
    except NetlistError:
        return
    try:
        tr = run_transient(nl)
    except CircuitError:
        return
    assert isinstance(tr, transient.TraceSet)


# --- the quiet end of a lean run ----------------------------------------------


@pytest.fixture(scope="module")
def b2ic_stack():
    """17 soma2 b2.ic variants over +-90% and their lean batch."""
    nl = parse_netlist(bundled_text("soma2"))
    stack = [scaled(nl, "b2.ic", 1.0 + f) for f in np.linspace(-0.9, 0.9, 17)]
    return stack, run_transients(stack, record=False)


class TestQuietEnd:
    # one junction far below Ic: quiet once its plasma oscillation has died
    QUIET_DC = "b1 1 0 ic=100u\ni1 0 1 dc 1u\n.tran 0.05 40"

    @pytest.mark.parametrize("factor, bout", [
        # b2.ic at -20%: bout fires a second time 95 ps after its first pulse
        (0.8, [179.5, 274.8]),
        # b2.ic at -84%: every junction stays under QUIET_VOLTAGE over whole
        # chunks from about 250 ps, but the storage loop's current still
        # moves; only the inductor test holds the run open for bout's second
        # pulse
        (0.16, [173.7, 383.4]),
    ])
    def test_probes_that_fire_again_after_going_still(self, factor, bout):
        probe = scaled(parse_netlist(bundled_text("soma2")), "b2.ic", factor)
        (lean,), (recorded,) = run_transients([probe], record=False), run_transients([probe])
        assert lean.pulses["bout"] == pytest.approx(bout, abs=0.05)
        assert lean.pulses == recorded.pulses
        assert bout[-1] < lean.time_ps[-1] <= recorded.time_ps[-1] == 430.0

    def test_the_quiet_current_is_a_rate(self):
        # the -84% probe at a 0.0125 ps step: with a fixed 1 nA change per
        # step, the storage loop's current looked still from 280 ps on and
        # the lean run ended there, before bout's second pulse
        probe = scaled(parse_netlist(bundled_text("soma2")), "b2.ic", 0.16)
        (lean,), (recorded,) = (run_transients([probe], step=0.0125, record=record) for record in (False, True))
        assert len(recorded.pulses["bout"]) == 2
        assert lean.pulses == recorded.pulses

    @pytest.mark.parametrize("v", [0, 1, 8, 16])
    def test_a_batch_variant_ends_where_its_solo_run_ends(self, b2ic_stack, v):
        # the variants end at different chunks; each ends on its own test
        stack, lean = b2ic_stack
        got, (want,) = lean[v], run_transients([stack[v]], record=False)
        assert len(got.time_ps) == len(want.time_ps) < samples(stack[v])
        assert got.pulses.keys() == want.pulses.keys()
        for j, times in want.pulses.items():  # the batch's products round apart
            assert got.pulses[j] == pytest.approx(times, abs=1e-6), j
        assert (got.newton_iterations, got.newton_max_per_step) == (
            want.newton_iterations,
            want.newton_max_per_step,
        )
        assert got.newton_residual == pytest.approx(want.newton_residual, rel=1e-3)
        assert got.newton_rho == pytest.approx(want.newton_rho, rel=1e-12)

    def test_recorded_runs_never_end_early(self):
        nl = parse_netlist(bundled_text("soma2"))
        recorded = run_transient(nl)
        (lean,) = run_transients([nl], record=False)
        assert len(recorded.time_ps) == samples(nl) > len(lean.time_ps)
        # a lean run's last node sample is its value at the quiet end
        end = len(lean.time_ps) - 1
        assert lean.node_voltage["25"][-1] == recorded.node_voltage["25"][end]
        assert lean.pulses == recorded.pulses

    def test_a_sine_never_ends_a_run(self):
        # the same junction under a 1 nA sine: never constant, never quiet
        (still,) = run_transients([parse_netlist(self.QUIET_DC)], record=False)
        wobble = parse_netlist(self.QUIET_DC.replace("dc 1u", "sin 1u 1n 1000"))
        (lean,) = run_transients([wobble], record=False)
        assert len(still.time_ps) - 1 == 2 * CHUNK
        assert len(lean.time_ps) - 1 == 800

    def test_a_late_edge_holds_the_run_open(self):
        # a second source steps 1 nA at 39 ps: the run ends at its last step
        late = parse_netlist(self.QUIET_DC.replace(".tran", "i2 0 1 pulse 39 0.5 10 0 1n\n.tran"))
        (lean,) = run_transients([late], record=False)
        assert len(lean.time_ps) - 1 == 800
        assert_ends_only_when_sources_hold(late, lean)


# --- the chunked step loop ---------------------------------------------------

CHUNK = transient.CHUNK
# Two coupled junctions that switch every 55 steps from step 30 on
# (b1) and 51 on (b2), under two drives whose common delay shifts every
# crossing.
TWO_SOURCES = ("b1 1 0 ic=100u rn=8\nl1 1 2 3p\nb2 2 0 ic=120u rn=8\nr2 2 0 3\n"
               "i1 0 1 pulse {delay} 1 1e6 0 400u\ni2 0 2 pulse {delay} 1 1e6 0 80u\n.tran 0.05 20")


def mixed_stack(text):
    """Four variants: the first two share i1's waveform and the last two
    scale it apart; all four share i2's."""
    nl = parse_netlist(text)
    return [nl, scaled(nl, "b1.ic", 0.9), scaled(nl, "i1.amp", 1.1),
            scaled(scaled(nl, "i1.amp", 0.9), "b2.ic", 1.1)]


def assert_chunked_runs_agree(stack, stop):
    """Recorded and lean batches of `stack` against each other and each
    variant's recorded batch against its solo run."""
    recorded = run_transients(stack, stop=stop)
    assert_lean_matches(stack, run_transients(stack, stop=stop, record=False), recorded)
    for nl, rec in zip(stack, recorded, strict=True):
        assert_matches_solo(rec, run_transient(nl, stop=stop))
    return recorded


class TestChunkEdges:
    @pytest.mark.parametrize("n_steps", [0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    def test_runs_ending_at_chunk_edges(self, n_steps):
        recorded = assert_chunked_runs_agree(mixed_stack(TWO_SOURCES.format(delay=0)), n_steps * 0.05)
        assert all(len(tr.time_ps) == n_steps + 1 for tr in recorded)
        if n_steps > CHUNK:  # every variant's b1 has switched by then
            assert all(len(detect_pulses_in(tr, "b1")) > 0 for tr in recorded)

    @pytest.mark.parametrize("landing,n_steps", [
        (CHUNK + 1, CHUNK + 1),  # the run's last chunk is that one step
        (CHUNK + 1, 2 * CHUNK + 3),
        (2 * CHUNK + 1, 2 * CHUNK + 3),
    ])
    def test_a_crossing_on_a_chunks_first_step(self, landing, n_steps):
        # delay the drive so that b1's first crossing of pi moves to step `landing`
        early = run_transient(parse_netlist(TWO_SOURCES.format(delay=0))).junction_phase["b1"]
        shift = landing - int(np.argmax(early >= math.pi))
        stack = mixed_stack(TWO_SOURCES.format(delay=f"{shift * 0.05:.2f}"))
        recorded = assert_chunked_runs_agree(stack, n_steps * 0.05)
        assert int(np.argmax(recorded[0].junction_phase["b1"] >= math.pi)) == landing
