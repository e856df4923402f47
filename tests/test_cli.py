import json
import re

import pytest

from fluxon.cli import main

FAST_CONFIG = {
    "train": {"epochs": 300, "learning_rate": 0.5, "train_biases": False},
    "ga": {"population": 16, "generations": 8},
}


@pytest.fixture()
def fast_config(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(FAST_CONFIG))
    return str(p)


def run(*argv):
    return main(list(argv))


def run_with_config(tmp_path, cfg, *argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return run("--config", str(path), "--out", str(tmp_path / "out"), *argv)


def assert_clean_error(capsys, message):
    err = capsys.readouterr().err
    assert message in err and "internal error" not in err and "Traceback" not in err


class TestTrain:
    def test_artifacts_and_progress(self, tmp_path, fast_config, capsys):
        out = tmp_path / "out"
        assert run("--config", fast_config, "--out", str(out), "train") == 0
        assert (out / "mlp.json").exists()
        rows = (out / "train_log.csv").read_text().splitlines()
        assert rows[0] == "epoch,loss"
        first = float(rows[1].split(",")[1])
        last = float(rows[-1].split(",")[1])
        assert last < first

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"dataset": "/no/such/file.csv"}))
        assert run("--config", str(cfg), "--out", str(tmp_path / "o"), "train") == 2
        assert "dataset not found" in capsys.readouterr().err

    def test_bad_split_config_exits_2(self, tmp_path, capsys):
        assert run_with_config(tmp_path, {"split": {"train_fraction": 1.5}}, "train") == 2
        assert_clean_error(capsys, "bad split config: train_fraction must lie in (0,1)")

    def test_seeded_rerun_byte_identical(self, tmp_path, fast_config):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run("--config", fast_config, "--out", str(out_a), "--seed", "5", "train")
        run("--config", fast_config, "--out", str(out_b), "--seed", "5", "train")
        assert (out_a / "mlp.json").read_bytes() == (out_b / "mlp.json").read_bytes()


class TestDiscretize:
    def test_pipeline(self, tmp_path, fast_config):
        out = tmp_path / "out"
        assert run("--config", fast_config, "--out", str(out), "train") == 0
        assert run("--config", fast_config, "--out", str(out), "discretize") == 0
        net = json.loads((out / "network.json").read_text())
        for layer in net["layers"]:
            flat = [w for row in layer["weights"] for w in row]
            assert all(-2 <= w <= 2 for w in flat)
            assert set(layer["thresholds"]) <= {1, 2, 5}
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["spiking_match_pct"] == 100.0

    def test_requires_trained_mlp(self, tmp_path, fast_config, capsys):
        assert run("--config", fast_config, "--out", str(tmp_path / "x"), "discretize") == 2

    @pytest.mark.parametrize("ga", [{"population": 1}, {"popsize": 10}])
    def test_bad_ga_config_exits_2(self, tmp_path, fast_config, capsys, ga):
        out = tmp_path / "out"
        assert run("--config", fast_config, "--out", str(out), "train") == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"ga": ga}))
        assert run("--config", str(bad), "--out", str(out), "discretize") == 2
        err = capsys.readouterr().err
        assert "bad ga config" in err and "internal error" not in err

    def test_seeded_rerun_identical_network(self, tmp_path, fast_config):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            run("--config", fast_config, "--out", str(out), "--seed", "5", "train")
            run("--config", fast_config, "--out", str(out), "--seed", "5", "discretize")
        assert (out_a / "network.json").read_bytes() == (out_b / "network.json").read_bytes()


class TestSimulate:
    def test_behavioral_zero_input_silent(self, tmp_path, fast_config, capsys):
        out = tmp_path / "out"
        run("--config", fast_config, "--out", str(out), "train")
        run("--config", fast_config, "--out", str(out), "discretize")
        assert run("--config", fast_config, "--out", str(out),
                   "simulate", "--mode", "behavioral", "--input", "0,0,0,0") == 0
        events = (out / "events.csv").read_text().splitlines()
        assert events == ["time_ps,node"]
        report = json.loads((out / "sim_report.json").read_text())
        assert report["fired_class"] is None

    def test_custom_threshold_set(self, tmp_path, capsys):
        cfg = tmp_path / "thr.json"
        cfg.write_text(json.dumps({**FAST_CONFIG, "ga": {**FAST_CONFIG["ga"], "threshold_set": [3, 4]}}))
        out = tmp_path / "out"
        for stage in ("train", "discretize", "simulate"):
            assert run("--config", str(cfg), "--out", str(out), stage) == 0, stage
        net = json.loads((out / "network.json").read_text())
        assert {t for layer in net["layers"] for t in layer["thresholds"]} <= {3, 4}
        assert "spiking == discrete: True" in capsys.readouterr().out

    def test_network_outside_threshold_set_exits_2(self, tmp_path, fast_config, capsys):
        out = tmp_path / "out"
        run("--config", fast_config, "--out", str(out), "train")
        run("--config", fast_config, "--out", str(out), "discretize")
        cfg = tmp_path / "thr.json"
        cfg.write_text(json.dumps({"ga": {"threshold_set": [6]}}))
        assert run("--config", str(cfg), "--out", str(out), "simulate") == 2
        err = capsys.readouterr().err
        assert "outside the soma set (6,)" in err and "internal error" not in err

    def test_spiking_pass_logged(self, tmp_path, fast_config, capsys, caplog):
        out = tmp_path / "out"
        run("--config", fast_config, "--out", str(out), "train")
        with caplog.at_level("INFO", logger="fluxon.cli"):
            run("--config", fast_config, "--out", str(out), "discretize")
            assert "spiking: 150 inputs in" in caplog.text
            caplog.clear()
            run("--config", fast_config, "--out", str(out), "simulate", "--input", "1,0,2,1")
            assert "spiking: 1 inputs in" in caplog.text
            caplog.clear()
            capsys.readouterr()
            run("--config", fast_config, "--out", str(out), "simulate")
        unique = len(capsys.readouterr().out.splitlines()) - 1  # one line per test vector
        assert f"spiking: {unique} inputs in" in caplog.text

    def test_malformed_input_vector(self, tmp_path, fast_config, capsys):
        out = tmp_path / "out"
        run("--config", fast_config, "--out", str(out), "train")
        run("--config", fast_config, "--out", str(out), "discretize")
        assert run("--config", fast_config, "--out", str(out),
                   "simulate", "--mode", "behavioral", "--input", "a,b") == 2

    def test_circuit_mode_jtl(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("--out", str(out), "simulate", "--mode", "circuit", "--netlist", "jtl") == 0
        assert (out / "waveform.csv").exists()
        pulses = (out / "pulses.csv").read_text().splitlines()
        assert pulses[0] == "time_ps,node"
        assert len(pulses) == 3  # one slip each on b1 and b2

    def test_circuit_error_exits_2(self, tmp_path, capsys):
        cir = tmp_path / "coarse.cir"
        cir.write_text("r1 1 0 1\ni1 0 1 dc 1m\n.tran 0.5 10\n")
        assert run("--out", str(tmp_path / "out"), "simulate", "--mode", "circuit",
                   "--netlist", str(cir)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: step must lie in")
        assert "internal error" not in err

    @pytest.mark.parametrize("tran", ["0.05 -5", "0 10"])
    def test_bad_tran_exits_2(self, tmp_path, capsys, tran):
        cir = tmp_path / "bad.cir"
        cir.write_text(f"r1 1 0 1\ni1 0 1 dc 1m\n.tran {tran}\n")
        assert run("--out", str(tmp_path / "out"), "simulate", "--mode", "circuit",
                   "--netlist", str(cir)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: .tran step and stop must be positive and finite")
        assert "internal error" not in err

    def test_unknown_phase_print_exits_2(self, tmp_path, capsys):
        cir = tmp_path / "bzz.cir"
        cir.write_text("b1 1 0 ic=100u\ni1 0 1 dc 50u\n.tran 0.1 1\n.print phi(bzz)\n")
        assert run("--out", str(tmp_path / "out"), "simulate", "--mode", "circuit",
                   "--netlist", str(cir)) == 2
        assert "unknown junction 'bzz'" in capsys.readouterr().err


class TestStageLogs:
    @pytest.mark.parametrize(
        "argv,artifacts,logged",
        [
            (["simulate", "--mode", "circuit", "--netlist", "jtl"], ["waveform.csv", "pulses.csv"],
             r"^transient: jtl: 6000 steps, 1\.\d{3} Newton updates per step, rho \d\.\d\de-0\d "
             r"in \d+\.\d{3} s$"),
            (["power"], ["power_iris.json", "power_nw_a.json", "power_nw_b.json"],
             r"^power: 3 networks in \d+\.\d{3} s$"),
        ],
        ids=["simulate-circuit", "power"],
    )
    def test_logged_without_changing_outputs(self, tmp_path, capsys, caplog, argv, artifacts, logged):
        outputs = []
        for level in ("WARNING", "INFO"):
            caplog.clear()
            out = tmp_path / level
            with caplog.at_level(level, logger="fluxon"):
                assert run("--out", str(out), *argv) == 0
            files = sorted(p.name for p in out.iterdir())
            assert set(artifacts) <= set(files)
            stdout = capsys.readouterr().out.replace(str(out), "<out>")  # names its artifacts
            outputs.append((stdout, files, [(out / f).read_bytes() for f in files]))
            lines = [r.getMessage() for r in caplog.records if r.name == "fluxon.cli"]
        assert outputs[0] == outputs[1]
        assert len(lines) == 1 and re.match(logged, lines[0]), lines


class TestPower:
    def test_reports(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("--out", str(out), "power") == 0
        rep = json.loads((out / "power_iris.json").read_text())
        assert rep["dynamic_w"] == pytest.approx(1.98e-8, rel=0.01)
        assert rep["sops_per_watt"] == pytest.approx(8.57e11, rel=0.01)
        text = capsys.readouterr().out
        assert "worst_sops" in text

    def test_unknown_config_exits_2(self, tmp_path):
        assert run("--out", str(tmp_path / "o"), "power", "--network", "/missing.json") == 2


class TestMargins:
    def test_scan_logged(self, tmp_path, capsys, caplog):
        from importlib import resources

        text = resources.files("fluxon.data").joinpath("netlists/jtl.cir").read_text()
        netlist = tmp_path / "jtl.cir"
        netlist.write_text(text.replace(".tran 0.05 300", ".tran 0.05 150"))
        cfg = tmp_path / "margins.json"
        cfg.write_text(json.dumps({"margins": {
            "netlist": str(netlist), "params": ["ib1.amp", "b2.ic"],
            "junction": "b2", "count": 1, "resolution": 0.3,
        }}))
        out = tmp_path / "out"
        with caplog.at_level("INFO", logger="fluxon.cli"):
            assert run("--config", str(cfg), "--out", str(out), "margins") == 0
        assert "margins: ib1.amp in " in caplog.text and "margins: b2.ic in " in caplog.text
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in printed] == ["ib1.amp", "b2.ic"]
        rows = (out / "margins.csv").read_text().splitlines()
        assert rows[0] == "param,low_pct,high_pct" and len(rows) == 3


    def test_scan_counts_logged_without_changing_outputs(self, tmp_path, capsys, caplog):
        from importlib import resources

        text = resources.files("fluxon.data").joinpath("netlists/jtl.cir").read_text()
        netlist = tmp_path / "jtl.cir"
        netlist.write_text(text.replace(".tran 0.05 300", ".tran 0.05 150"))
        cfg = tmp_path / "margins.json"
        cfg.write_text(json.dumps({"margins": {
            "netlist": str(netlist), "params": ["vin.amp", "b2.ic"],
            "junction": "b2", "count": 1, "resolution": 0.1,
        }}))
        outputs = []
        for level in ("WARNING", "INFO"):
            caplog.clear()
            with caplog.at_level(level, logger="fluxon"):
                assert run("--config", str(cfg), "--out", str(tmp_path / level), "margins") == 0
            outputs.append((capsys.readouterr().out, (tmp_path / level / "margins.csv").read_bytes()))
        assert outputs[0] == outputs[1]
        lines = [r.getMessage() for r in caplog.records if r.name == "fluxon.margins"]
        # vin.amp bisects 4 levels a side, two per batch; b2.ic passes at both bounds
        assert lines == [
            "margins: vin.amp: 15 transients in 5 batches",
            "margins: b2.ic: 3 transients in 1 batches",
        ]

    @pytest.mark.parametrize("resolution", [-0.01, 0.0])
    def test_non_positive_resolution_exits_2(self, tmp_path, capsys, resolution):
        assert run_with_config(tmp_path, {"margins": {"resolution": resolution}}, "margins") == 2
        assert_clean_error(capsys, "bad margins config: resolution")


class TestPso:
    def test_sphere_benchmark(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("--out", str(out), "pso", "--benchmark", "sphere") == 0
        best = json.loads((out / "pso_best.json").read_text())
        assert best["best_score"] < 1e-6
        rows = (out / "pso_trace.csv").read_text().splitlines()
        assert rows[0] == "iteration,best_score,mean_score"

    def test_run_logged(self, tmp_path, capsys, caplog):
        with caplog.at_level("INFO", logger="fluxon.cli"):
            assert run("--out", str(tmp_path / "out"), "pso", "--benchmark", "rosenbrock") == 0
        assert "pso: 16000 evaluations in " in caplog.text  # 40 particles x 400 iterations
        assert capsys.readouterr().out.startswith("pso best score ")

    def test_unknown_benchmark(self, tmp_path):
        assert run("--out", str(tmp_path / "o"), "pso", "--benchmark", "zzz") == 2

    def test_bad_selector_exit_2(self, tmp_path, capsys):
        assert run("--out", str(tmp_path / "o"), "pso", "--netlist", "soma2",
                   "--params", "nosuch.ic") == 2
        assert "nosuch" in capsys.readouterr().err

    def test_bad_swarm_config_exits_2(self, tmp_path, capsys):
        assert run_with_config(tmp_path, {"pso": {"n_particles": 1}}, "pso", "--params", "b2.ic") == 2
        assert_clean_error(capsys, "bad pso config: n_particles must be >= 2")
