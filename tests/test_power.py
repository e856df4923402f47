import json
from importlib import resources

import pytest

from fluxon.core import PHI0
from fluxon.power import (
    PowerInputs,
    dynamic_power,
    energy_per_pulse,
    scale_projection,
    total_power,
)


def bundled(name):
    return resources.files("fluxon.data").joinpath(f"power/{name}.json").read_text()


class TestEnergy:
    def test_reference_junction(self):
        assert energy_per_pulse(109e-6) == pytest.approx(2.254e-19, rel=0.005)

    def test_zero(self):
        assert energy_per_pulse(0.0) == 0.0

    def test_larger_junction(self):
        # 243e-6 * 2.068e-15
        assert energy_per_pulse(243e-6) == pytest.approx(5.025e-19, rel=1e-3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            energy_per_pulse(-1e-6)


class TestDynamicPower:
    def test_reference_network(self):
        assert dynamic_power(88, 109e-6, 1e9) == pytest.approx(1.98e-8, rel=0.01)

    def test_large_network_cell_count(self):
        cfg = PowerInputs.from_json(bundled("nw_b"))
        dyn = dynamic_power(cfg.n_switching_cells, cfg.ic, cfg.clock)
        assert dyn == pytest.approx(0.57e-3, rel=0.01)

    def test_zero_cells(self):
        assert dynamic_power(0, 109e-6, 1e9) == 0.0

    def test_linearity(self):
        base = dynamic_power(10, 100e-6, 1e9)
        assert dynamic_power(20, 100e-6, 1e9) == pytest.approx(2 * base)
        assert dynamic_power(10, 200e-6, 1e9) == pytest.approx(2 * base)
        assert dynamic_power(10, 100e-6, 2e9) == pytest.approx(2 * base)


class TestTotalPower:
    @pytest.mark.parametrize(
        "name,total,sops,spw",
        [
            ("iris", 0.014, 1.2e10, 8.57e11),
            ("nw_a", 0.158, 4e12, 2.53e13),
            ("nw_b", 2.0, 1.6e16, 8e15),
        ],
    )
    def test_reference_chain(self, name, total, sops, spw):
        rep = total_power(PowerInputs.from_json(bundled(name)))
        assert rep.total_w == pytest.approx(total, rel=0.01)
        assert rep.sops == pytest.approx(sops, rel=0.01)
        assert rep.sops_per_watt == pytest.approx(spw, rel=0.01)

    def test_report_invariants(self):
        rep = total_power(PowerInputs.from_json(bundled("iris")))
        assert rep.total_w == (rep.dynamic_w + rep.static_on_chip_w) * 400.0
        assert rep.sops_per_watt * rep.total_w == pytest.approx(rep.sops, rel=1e-12)

    def test_no_cooling_no_static(self):
        inp = PowerInputs("x", 10, 100e-6, 1e9, 0.0, cooling_overhead=1.0, sops_rated=1.0)
        rep = total_power(inp)
        assert rep.total_w == rep.dynamic_w

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerInputs("x", 1, 1e-6, 1e9, 0.0, cooling_overhead=0.5)
        with pytest.raises(ValueError):
            PowerInputs("x", -1, 1e-6, 1e9, 0.0)


class TestScaleProjection:
    def proj(self, tech):
        cfg = json.loads(resources.files("fluxon.data").joinpath("power/nw_d.json").read_text())
        return scale_projection(
            cfg["cores"],
            cfg["neurons_per_core"],
            cfg["per_core_power_w"],
            cfg["per_core_sops"],
            tech,
            per_core_static_w=cfg["per_core_static_w"],
        )

    def test_multicore_order_of_magnitude(self):
        rep = self.proj("RSFQ")
        assert 1e17 <= rep.sops <= 1e19
        assert 0.1 <= rep.sops_per_watt / 1e15 <= 10.0

    def test_efficient_bias_variant(self):
        rep = self.proj("eRSFQ")
        assert 0.1 <= rep.sops_per_watt / 1e16 <= 10.0
        assert rep.static_on_chip_w == 0.0

    def test_adiabatic_variant(self):
        rep = self.proj("AQFP")
        assert 0.1 <= rep.sops_per_watt / 1e17 <= 10.0

    def test_single_core_identity(self):
        rep = scale_projection(1, 256, 5e-3, 1.6e16, "RSFQ", per_core_static_w=4.43e-3)
        assert rep.sops == 1.6e16
        assert rep.on_chip_w == pytest.approx(5e-3)
        assert rep.total_w == pytest.approx(2.0)

    def test_unknown_technology_names_the_known_ones(self):
        with pytest.raises(ValueError, match="^unknown technology 'XYZ'; known: RSFQ, eRSFQ, AQFP$"):
            self.proj("XYZ")

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            scale_projection(0, 256, 1e-3, 1e12)


def test_energy_is_flux_quantum_times_current():
    for ic in (1e-6, 109e-6, 243e-6):
        assert energy_per_pulse(ic) == ic * PHI0


# The six reports `fluxon power` writes by default, pinned bit for bit: a
# reordered power chain moves their last bits, which rel=0.01 cannot see.
POWER_REPORTS = {
    "iris": dict(energy_per_pulse_j=2.2541200000000004e-19, dynamic_w=1.9836256000000002e-08,
                 static_on_chip_w=3.4980163743999995e-05, on_chip_w=3.5e-05, total_w=0.013999999999999999,
                 sops=12000000000.0, sops_per_watt=857142857142.8572, sops_worst_case=88000000000.0),
    "nw_a": dict(energy_per_pulse_j=2.2541200000000004e-19, dynamic_w=1.19919184e-07,
                 static_on_chip_w=0.000394880080816, on_chip_w=0.000395, total_w=0.158,
                 sops=4000000000000.0, sops_per_watt=25316455696202.53, sops_worst_case=532000000000.0),
    "nw_b": dict(energy_per_pulse_j=2.2541200000000004e-19, dynamic_w=0.0005700000006360001,
                 static_on_chip_w=0.004429999999364, on_chip_w=0.005, total_w=2.0,
                 sops=1.6e16, sops_per_watt=8e15, sops_worst_case=2528703000000000.0),
    "256x256-RSFQ": dict(energy_per_pulse_j=0.0, dynamic_w=0.14592000000000005, static_on_chip_w=1.13408,
                         on_chip_w=1.28, total_w=512.0, sops=4.096e18, sops_per_watt=8e15,
                         sops_worst_case=0.0),
    "256x256-eRSFQ": dict(energy_per_pulse_j=0.0, dynamic_w=0.14592000000000005, static_on_chip_w=0.0,
                          on_chip_w=0.14592000000000005, total_w=58.36800000000002, sops=4.096e18,
                          sops_per_watt=7.01754385964912e16, sops_worst_case=0.0),
    "256x256-AQFP": dict(energy_per_pulse_j=0.0, dynamic_w=0.14592000000000005, static_on_chip_w=0.0,
                         on_chip_w=0.14592000000000005, total_w=5.836800000000002, sops=4.096e18,
                         sops_per_watt=7.01754385964912e17, sops_worst_case=0.0),
}


def test_power_command_reports_are_pinned_exactly(tmp_path):
    from fluxon.cli import main

    assert main(["--out", str(tmp_path), "power"]) == 0
    got = {p.name: json.loads(p.read_text()) for p in tmp_path.glob("power_*.json")}
    assert got == {f"power_{name}.json": {"name": name, **fields} for name, fields in POWER_REPORTS.items()}
