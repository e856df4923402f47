import json
import math
import os
import re
import string
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fluxon import cli
from fluxon.circuit import parse_netlist
from fluxon.cli import DEFAULT_CONFIG, UserError, load_config, main
from fluxon.train import RealMlp

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


def bundled_steps(cell):
    """The steps of the bundled netlist's .tran grid."""
    nl = parse_netlist(resources.files("fluxon.data").joinpath(f"netlists/{cell}.cir").read_text())
    return round(nl.tran_stop / nl.tran_step)


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

    @pytest.mark.parametrize("fraction", [0.999, 0.001])
    def test_plain_split_that_empties_a_side_exits_2(self, tmp_path, fast_config, capsys, fraction):
        for stage in ("train", "discretize"):  # the artifacts the later stages read
            assert run("--config", fast_config, "--out", str(tmp_path / "out"), stage) == 0
        cfg = {**FAST_CONFIG, "split": {"train_fraction": fraction, "stratified": False}}
        for command in ("train", "discretize", "simulate", "reproduce-paper"):
            capsys.readouterr()
            assert run_with_config(tmp_path, cfg, command) == 2, command
            assert_clean_error(capsys, f"bad split config: fraction {fraction} empties one side of the split")

    def test_config_file_errors_exit_2(self, tmp_path, capsys):
        assert run("--config", str(tmp_path / "nosuch.json"), "--out", str(tmp_path / "o"), "train") == 2
        assert_clean_error(capsys, f"error: config not found: {tmp_path / 'nosuch.json'}")
        (tmp_path / "c.json").write_text('{"seed": 3,')
        assert run("--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o"), "train") == 2
        assert_clean_error(capsys, f"error: malformed config {tmp_path / 'c.json'}: Expecting")
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("ga", [{"population": 1}, {"threshold_set": [7]}])
    def test_reproduce_rejects_bad_ga_config_before_training(self, tmp_path, capsys, ga):
        assert run_with_config(tmp_path, {"ga": ga}, "reproduce-paper") == 2
        captured = capsys.readouterr()
        assert "bad ga config" in captured.err and "internal error" not in captured.err
        assert "trained mlp" not in captured.out
        assert list((tmp_path / "out").iterdir()) == []

    def test_seeded_rerun_identical_network(self, tmp_path, fast_config):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            run("--config", fast_config, "--out", str(out), "--seed", "5", "train")
            run("--config", fast_config, "--out", str(out), "--seed", "5", "discretize")
        assert (out_a / "network.json").read_bytes() == (out_b / "network.json").read_bytes()


CHECKLIST_POWER_ROWS = [
    "[ok] energy per pulse @109uA: 2.254e-19 J (target 2.254e-19)",
    "[ok] worst-case dynamic power, 88 cells @1GHz: 1.984e-08 W (target 1.98e-08)",
    "[ok] iris SOPS / SOPS-per-watt: 1.2e+10 / 8.57e+11",
    "[ok] nw_a SOPS / SOPS-per-watt: 4e+12 / 2.53e+13",
    "[ok] nw_b SOPS / SOPS-per-watt: 1.6e+16 / 8e+15",
    "[ok] multi-core RSFQ projection: 4.1e+18 SOPS, 8e+15 SOPS/W (~1e+15)",
    "[ok] multi-core eRSFQ projection: 4.1e+18 SOPS, 7e+16 SOPS/W (~1e+16)",
    "[ok] multi-core AQFP projection: 4.1e+18 SOPS, 7e+17 SOPS/W (~1e+17)",
]
CHECKLIST_ITEMS = [row[5:].split(": ")[0] for row in CHECKLIST_POWER_ROWS] + [
    "behavioral soma timing windows",
    "IRIS training accuracy >= 0.95",
    "spiking == discrete on all samples",
]


def checklist(stdout: str) -> tuple[list[str], list[str], list[str]]:
    """The lines before the first checklist item, the 11 item lines, and the lines after them."""
    lines = stdout.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith(("[ok] ", "[FAIL] ")))
    end = first + len(CHECKLIST_ITEMS)
    return lines[:first], lines[first:end], lines[end:]


class TestReproducePaper:
    def test_checklist_follows_the_stages(self, tmp_path, fast_config, capsys):
        rc = run("--config", fast_config, "--out", str(tmp_path / "out"), "reproduce-paper")
        before, items, after = checklist(capsys.readouterr().out)
        assert [row.split("] ", 1)[1].split(": ")[0] for row in items] == CHECKLIST_ITEMS
        assert items[:8] == CHECKLIST_POWER_ROWS
        stages = "\n".join(before)
        for stage_output in ("trained mlp:", "spiking/discrete match:", "unique test vectors;", "256x256-AQFP:"):
            assert stage_output in stages
        passed = sum(row.startswith("[ok]") for row in items)
        assert after == ["", f"checklist: {passed}/11 passed"]
        assert rc == (0 if passed == 11 else 1)

    def test_untrained_network_fails_only_the_accuracy_item(self, tmp_path, capsys):
        cfg = {**FAST_CONFIG, "train": {**FAST_CONFIG["train"], "epochs": 0}}
        assert run_with_config(tmp_path, cfg, "reproduce-paper") == 1
        _, items, after = checklist(capsys.readouterr().out)
        failed = [row for row in items if not row.startswith("[ok] ")]
        assert len(failed) == 1 and failed[0].startswith("[FAIL] IRIS training accuracy >= 0.95: ")
        assert after == ["", "checklist: 10/11 passed"]

    def test_power_rows_read_the_reports_the_power_stage_wrote(self, tmp_path, fast_config, monkeypatch, capsys):
        power = cli.cmd_power

        def doctored_power(cfg, args):
            rc = power(cfg, args)
            path = tmp_path / "out" / "power_nw_a.json"
            path.write_text(json.dumps({**json.loads(path.read_text()), "sops": 1.0}))
            return rc

        monkeypatch.setattr(cli, "cmd_power", doctored_power)
        assert run("--config", fast_config, "--out", str(tmp_path / "out"), "reproduce-paper") == 1
        _, items, _ = checklist(capsys.readouterr().out)
        assert items[3] == "[FAIL] nw_a SOPS / SOPS-per-watt: 1 / 2.53e+13"

    def test_power_config_without_a_checked_network_exits_2(self, tmp_path, capsys):
        assert run_with_config(tmp_path, {**FAST_CONFIG, "power": ["iris", "nw_b"]}, "reproduce-paper") == 2
        captured = capsys.readouterr()
        assert "error: reproduce-paper checks power_nw_a.json, which the power config does not write" in captured.err
        assert "internal error" not in captured.err and "[ok]" not in captured.out  # no partial checklist

    @pytest.mark.parametrize("power,message", [
        (["nope"], "error: power config not found: nope"),
        (["iris"], "error: reproduce-paper checks power_nw_a.json, which the power config does not write"),
    ], ids=["unknown", "short"])
    def test_power_list_checked_before_any_stage(self, tmp_path, capsys, power, message):
        assert run_with_config(tmp_path, {**FAST_CONFIG, "power": power}, "reproduce-paper") == 2
        captured = capsys.readouterr()
        assert message in captured.err and "internal error" not in captured.err
        assert "trained mlp" not in captured.out
        assert list((tmp_path / "out").iterdir()) == []

    def test_stage_wall_times_logged(self, tmp_path, fast_config, caplog):
        with caplog.at_level("INFO", logger="fluxon.cli"):
            run("--config", fast_config, "--out", str(tmp_path / "out"), "reproduce-paper")
        stages = re.findall(r"reproduce-paper: (\w+) stage in \d+\.\d{3} s", caplog.text)
        assert stages == ["train", "discretize", "simulate", "power"]


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "fluxon", "--help"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: fluxon ")


@pytest.mark.parametrize("level", ["verbose", "warn", "10"])
def test_bad_log_level_is_a_user_error(tmp_path, monkeypatch, capsys, level):
    monkeypatch.setenv("FLUXON_LOG", level)
    assert run("--out", str(tmp_path / "out"), "power") == 2
    assert_clean_error(capsys, "error: FLUXON_LOG must be one of DEBUG, INFO, WARNING, ERROR, CRITICAL, "
                               f"got {level!r}")
    assert not (tmp_path / "out").exists()


def test_internal_failure_exits_1(tmp_path, monkeypatch, capsys):
    def broken(cfg, args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_power", broken)  # dispatch looks the handler up by name at call time
    assert main(["--out", str(tmp_path / "out"), "power"]) == 1
    assert capsys.readouterr().err.startswith("internal error: boom")


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

    @pytest.mark.parametrize("threshold,rc", [(3, 0), (6, 0), (7, 2), (0, 2)])
    def test_network_is_valid_when_its_soma_cells_exist(self, tmp_path, capsys, threshold, rc):
        # the default config's GA searches {1, 2, 5}; simulate runs any soma cell 1..6
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "network.json").write_text(json.dumps(network_with({"thresholds": [threshold, 1, 2, 5]})))
        assert run("--out", str(tmp_path / "out"), "simulate", "--input", "2,1,0,2") == rc
        if rc:
            assert_clean_error(capsys, f"error: bad {tmp_path}/out/network.json: thresholds [{threshold}] "
                                       "have no soma cell; the cells cover 1..6")

    def test_network_narrower_than_the_dataset_exits_2(self, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        narrow = network_with({"weights": [[1, 1, -1]] * 4}, input_dim=3)
        (tmp_path / "out" / "network.json").write_text(json.dumps(narrow))
        assert run("--out", str(tmp_path / "out"), "simulate") == 2
        assert_clean_error(capsys, f"error: bad {tmp_path}/out/network.json: 3 inputs, the dataset has 4")

    def test_spiking_pass_logged(self, tmp_path, fast_config, capsys, caplog):
        def cache_lookups(n):
            """Hits plus misses of the logged pass over n inputs."""
            figures = re.search(rf"spiking: {n} inputs in [\d.]+ s \([\d.]+ µs/input; discrete [\d.]+ "
                                r"µs/input; response cache (\d+) hits, (\d+) misses\)", caplog.text)
            assert figures, caplog.text
            return sum(map(int, figures.groups()))

        out = tmp_path / "out"
        run("--config", fast_config, "--out", str(out), "train")
        with caplog.at_level("INFO", logger="fluxon.cli"):
            run("--config", fast_config, "--out", str(out), "discretize")
            spec = json.loads((out / "network.json").read_text())
            responses = spec["input_dim"] + sum(len(layer["thresholds"]) for layer in spec["layers"])
            assert cache_lookups(24) == 24 * responses  # the 150 samples' distinct inputs, one per input and neuron
            caplog.clear()
            run("--config", fast_config, "--out", str(out), "simulate", "--input", "1,0,2,1")
            assert re.search(r"spiking: 1 inputs in [\d.]+ s \([\d.]+ µs/input\)", caplog.text)
            caplog.clear()
            capsys.readouterr()
            run("--config", fast_config, "--out", str(out), "simulate")
        unique = len(capsys.readouterr().out.splitlines()) - 1  # one line per test vector
        assert cache_lookups(unique) == unique * responses  # counted from the cache as the pass found it

    def test_malformed_input_vector(self, tmp_path, fast_config, capsys):
        out = tmp_path / "out"
        run("--config", fast_config, "--out", str(out), "train")
        run("--config", fast_config, "--out", str(out), "discretize")
        assert run("--config", fast_config, "--out", str(out),
                   "simulate", "--mode", "behavioral", "--input", "a,b") == 2
        assert_clean_error(capsys, "error: malformed input vector 'a,b'")
        assert run("--config", fast_config, "--out", str(out), "simulate", "--input", "") == 2
        assert_clean_error(capsys, "error: malformed input vector ''")
        assert run("--config", fast_config, "--out", str(out), "simulate", "--input", "1,2") == 2
        assert_clean_error(capsys, "error: input vector needs 4 entries, got 2")
        for vec, entry in (("1,2,3,1", "entry 3 is 3"), ("1,2,-1,0", "entry 3 is -1")):
            capsys.readouterr()
            assert run("--config", fast_config, "--out", str(out), "simulate", "--input", vec) == 2
            assert_clean_error(capsys, f"error: input vector {vec!r}: {entry}, levels are 0, 1 and 2")

    def test_circuit_mode_jtl(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("--out", str(out), "simulate", "--mode", "circuit", "--netlist", "jtl") == 0
        assert (out / "waveform.csv").exists()
        pulses = (out / "pulses.csv").read_text().splitlines()
        assert pulses[0] == "time_ps,node"
        assert len(pulses) == 3  # one slip each on b1 and b2

    @pytest.mark.parametrize("argv, flag, mode", [
        (["--mode", "circuit", "--input", "1,2,0,1"], "--input", "circuit"),
        (["--netlist", "jtl"], "--netlist", "behavioral"),
    ])
    def test_flag_the_mode_ignores_exits_2(self, tmp_path, capsys, argv, flag, mode):
        # each was once dropped silently: the default soma2 run, the network.json table
        out = tmp_path / "out"
        assert run("--out", str(out), "simulate", *argv) == 2
        assert_clean_error(capsys, f"error: simulate {flag} does not apply in {mode} mode")
        assert list(out.iterdir()) == []

    def test_circuit_error_exits_2(self, tmp_path, capsys):
        cir = tmp_path / "coarse.cir"
        cir.write_text("r1 1 0 1\ni1 0 1 dc 1m\n.tran 0.5 10\n")
        assert run("--out", str(tmp_path / "out"), "simulate", "--mode", "circuit",
                   "--netlist", str(cir)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: step must lie in")
        assert "internal error" not in err

    def test_unbuildable_time_grid_exits_2(self, tmp_path, capsys):
        cir = tmp_path / "fine.cir"
        cir.write_text("r1 1 0 1\ni1 0 1 dc 1m\n.tran 1e-300 5\n")
        assert run("--out", str(tmp_path / "out"), "simulate", "--mode", "circuit",
                   "--netlist", str(cir)) == 2
        assert_clean_error(capsys, "error: a 1e-300 ps step to 5.0 ps makes 5e+300 steps, too many for one time grid")

    @pytest.mark.parametrize("text,message", [
        # the source's 1e300 A through 1e300 ohm overflows the node voltage
        ("i1 0 1 dc 1e300\nr1 1 0 1e300", "error: the state is not finite on the step to t = 0.1000 ps at node 1"),
        # the predictor's h^2/2 phi'' divides by the capacitance
        ("b1 1 0 ic=1e-4 cap=1e-320", "error: the trapezoidal operator of a 0.1 ps step is not finite "
                                      "in the rows of junction b1: a device value is out of range"),
        # 2 pi ic rn^2 underflows to 0 in the default cap
        ("b1 1 0 ic=1e-200 rn=1e-100", "error: line 1: junction b1: the default cap is inf, "
                                       "not finite and positive; give cap="),
    ], ids=["state", "operator", "default"])
    def test_values_that_overflow_exit_2(self, tmp_path, capsys, text, message):
        cir = tmp_path / "huge.cir"
        cir.write_text(text + "\n.tran 0.1 5\n")
        assert run("--out", str(tmp_path / "out"), "simulate", "--mode", "circuit",
                   "--netlist", str(cir)) == 2
        assert_clean_error(capsys, message)

    def test_a_step_that_slips_a_junction_twice_exits_2(self, tmp_path, capsys):
        cir = tmp_path / "fast.cir"
        cir.write_text("b1 3 0 ic=100u\nr1 3 0 1\nv3 3 0 pulse 1 0.5 1 0.5 9.56e3\n.tran 0.1 5\n")
        assert run("--out", str(tmp_path / "out"), "simulate", "--mode", "circuit",
                   "--netlist", str(cir)) == 2
        assert_clean_error(capsys, "error: junction b1: phase slips more than once on the step to t = 1.1000 ps")

    @pytest.mark.parametrize("tran", ["0.05 -5", "0 10"])
    def test_bad_tran_exits_2(self, tmp_path, capsys, tran):
        cir = tmp_path / "bad.cir"
        cir.write_text(f"r1 1 0 1\ni1 0 1 dc 1m\n.tran {tran}\n")
        assert run("--out", str(tmp_path / "out"), "simulate", "--mode", "circuit",
                   "--netlist", str(cir)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: .tran step and stop must be positive and finite")
        assert "internal error" not in err

    def test_comma_name_exits_2_before_any_artifact(self, tmp_path, capsys):
        cir = tmp_path / "comma.cir"
        cir.write_text("i1 0 a,b pulse 10 5 10 5 300u\nr1 a,b 0 2\nb1,x a,b 0 ic=100u\n.tran 0.1 60\n"
                       ".print v(a,b) phi(b1,x)\n")
        assert run("--out", str(tmp_path / "out"), "simulate", "--mode", "circuit",
                   "--netlist", str(cir)) == 2
        assert_clean_error(capsys, "error: line 1: name 'a,b' may not hold")
        assert not list((tmp_path / "out").iterdir())

    def test_unknown_phase_print_exits_2(self, tmp_path, capsys):
        cir = tmp_path / "bzz.cir"
        cir.write_text("b1 1 0 ic=100u\ni1 0 1 dc 50u\n.tran 0.1 1\n.print phi(bzz)\n")
        assert run("--out", str(tmp_path / "out"), "simulate", "--mode", "circuit",
                   "--netlist", str(cir)) == 2
        assert "line 4: print request for unknown junction 'bzz'" in capsys.readouterr().err


class TestStageLogs:
    @pytest.mark.parametrize(
        "argv,artifacts,logged",
        [
            (["simulate", "--mode", "circuit", "--netlist", "jtl"], ["waveform.csv", "pulses.csv"],
             rf"^transient: jtl: {bundled_steps('jtl')} steps, 1\.\d{{3}} Newton updates per step, "
             r"rho \d\.\d\de-0\d in \d+\.\d{3} s$"),
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

    def test_projections_in_technology_order(self, tmp_path, capsys):
        assert run("--out", str(tmp_path / "out"), "power") == 0
        names = [line.split(":")[0] for line in capsys.readouterr().out.splitlines() if ": sops=" in line]
        assert [name.rsplit("-", 1)[1] for name in names] == ["RSFQ", "eRSFQ", "AQFP"] == list(cli.PROJECTION_TARGETS)


class TestMargins:
    def test_scan_logged(self, tmp_path, capsys, caplog):
        cfg = tmp_path / "margins.json"
        cfg.write_text(json.dumps({"margins": {
            "netlist": "jtl", "params": ["ib1.amp", "b2.ic"],
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
        cfg = tmp_path / "margins.json"
        cfg.write_text(json.dumps({"margins": {
            "netlist": "jtl", "params": ["vin.amp", "b2.ic"],
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
        # at resolution 0.1 the first batch's grid already places every edge
        assert [line.rsplit(", ", 1)[0] for line in lines] == [
            "margins: vin.amp: 19 transients in 1 batches",
            "margins: b2.ic: 19 transients in 1 batches",
        ]
        # then the steps the lean transients took, short of 19 full runs
        assert all(line.endswith(" steps") and 0 < int(line.split()[-2]) < 19 * bundled_steps("jtl")
                   for line in lines)

    def test_default_scan_reports_the_connected_interval(self, tmp_path, capsys):
        # soma2 passes again at b2.ic -90% beyond a failing stretch from -80%
        # to -20%; that island is not margin
        out = tmp_path / "out"
        assert run("--out", str(out), "margins") == 0
        assert capsys.readouterr().out == "ib.amp: -84.0% / +90.0%\nb2.ic: -18.0% / +24.0%\n"
        assert (out / "margins.csv").read_bytes() == b"param,low_pct,high_pct\nib.amp,84.0,90.0\nb2.ic,18.0,24.0\n"

    @pytest.mark.parametrize("resolution", [-0.01, 0.0])
    def test_non_positive_resolution_exits_2(self, tmp_path, capsys, resolution):
        assert run_with_config(tmp_path, {"margins": {"resolution": resolution}}, "margins") == 2
        assert_clean_error(capsys, "bad margins config: resolution")


class TestPso:
    def test_run_logged(self, tmp_path, capsys, caplog):
        outs = []
        for rerun in ("a", "b"):
            (tmp_path / rerun).mkdir()
            with caplog.at_level("INFO", logger="fluxon.cli"):
                assert run_with_config(tmp_path / rerun, SMALL_SWARM, "pso", "--params", "b2.ic") == 0
            assert "pso: 2 evaluations in " in caplog.text  # 2 particles x 1 iteration
            assert capsys.readouterr().out.startswith("pso best score ")
            outs.append(tmp_path / rerun / "out")
        for name in ("pso_trace.csv", "pso_best.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_benchmark_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("--out", str(tmp_path / "o"), "pso", "--benchmark", "sphere")
        assert exc.value.code == 2

    def test_negative_nominal_is_tuned_between_its_bounds(self, tmp_path, capsys):
        # soma2's bias written as the same current with its sign and nodes
        # swapped: the bounds 0.8 and 1.2 times the nominal come out reversed
        text = resources.files("fluxon.data").joinpath("netlists/soma2.cir").read_text()
        bias = "ib 0 11 pulse 0 50 1e6 0 369u"
        assert bias in text
        cir = tmp_path / "neg.cir"
        cir.write_text(text.replace(bias, "ib 11 0 pulse 0 50 1e6 0 -369u"))
        assert run_with_config(tmp_path, SMALL_SWARM, "pso", "--netlist", str(cir), "--params", "ib.amp") == 0
        assert capsys.readouterr().out.startswith("pso best score ")
        (best,) = json.loads((tmp_path / "out" / "pso_best.json").read_text())["best_vector"]
        assert -369e-6 * 1.2 <= best <= -369e-6 * 0.8

    def test_bad_selector_exit_2(self, tmp_path, capsys):
        assert run("--out", str(tmp_path / "o"), "pso", "--netlist", "soma2",
                   "--params", "nosuch.ic") == 2
        assert "nosuch" in capsys.readouterr().err

    def test_bad_swarm_config_exits_2(self, tmp_path, capsys):
        assert run_with_config(tmp_path, {"pso": {"n_particles": 1}}, "pso", "--params", "b2.ic") == 2
        assert_clean_error(capsys, "bad pso config: n_particles must be >= 2")


# Strings from string.printable: the test checks JSON kinds, not characters,
# and a full unicode alphabet costs hypothesis seconds to build on a fresh
# .hypothesis/ directory, which its too_slow health check counts.
TEXT = st.text(string.printable, max_size=4)
JSON_KINDS = {
    "null": st.none(),
    "boolean": st.booleans(),
    "integer": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "string": TEXT,
    "list": st.lists(st.integers() | TEXT, max_size=3),
    "object": st.dictionaries(TEXT, st.integers(), max_size=2),
}


def accepted_kinds(default):
    """The JSON kinds a config value may take in place of `default`."""
    if default is None:  # dataset: a path, or null for the bundled IRIS
        return {"null", "string"}
    return {bool: {"boolean"}, int: {"integer"}, float: {"integer", "float"}, str: {"string"},
            list: {"list"}, dict: {"object"}}[type(default)]


CONFIG_LEAVES = [(None, k) for k, v in DEFAULT_CONFIG.items() if not isinstance(v, dict)] + [
    (section, k) for section, sub in DEFAULT_CONFIG.items() if isinstance(sub, dict) for k in sub
]


@given(st.data())
def test_config_values_must_have_their_defaults_kind(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "kinds.json"

    def load(doc):
        path.write_text(json.dumps(doc))
        return load_config(str(path), None, None)

    assert load(DEFAULT_CONFIG) == DEFAULT_CONFIG
    assert load({"train": {"learning_rate": 1}})["train"]["learning_rate"] == 1

    section, key = data.draw(st.sampled_from(CONFIG_LEAVES))
    default = DEFAULT_CONFIG[key] if section is None else DEFAULT_CONFIG[section][key]
    wrong = sorted(set(JSON_KINDS) - accepted_kinds(default))
    if isinstance(default, list) and data.draw(st.booleans()):  # one element of another kind
        element = data.draw(st.sampled_from(sorted(set(JSON_KINDS) - accepted_kinds(default[0]))))
        value = list(default) + [data.draw(JSON_KINDS[element])]
    else:
        value = data.draw(JSON_KINDS[data.draw(st.sampled_from(wrong))])
    with pytest.raises(UserError) as err:
        load({key: value} if section is None else {section: {key: value}})
    where = "bad config: " if section is None else f"bad {section} config: "
    assert str(err.value).startswith(where) and key in str(err.value)


def test_ga_and_pso_sections_are_their_records_defaults():
    # literals, so a changed GaConfig or PsoConfig default shows up as a CLI change
    assert DEFAULT_CONFIG["ga"] == {"population": 100, "generations": 200, "mutation_rate": 0.15,
                                    "crossover_rate": 0.7, "elitism": 2, "threshold_set": [1, 2, 5]}
    assert DEFAULT_CONFIG["pso"] == {"n_particles": 12, "n_iterations": 60}


SMALL_SWARM = {"pso": {"n_particles": 2, "n_iterations": 1}}
NETWORK = {"input_dim": 4, "clock_ps": 1000.0, "layers": [
    {"weights": [[1, 1, 1, -1]] * 4, "thresholds": [1, 2, 5, 1], "synapse": "SM4"},
    {"weights": [[1, 0, 1, 0]] * 3, "thresholds": [1, 2, 5], "synapse": "SM2"},
]}


def network_with(layer0=None, **doc):
    """NETWORK with `doc`'s top-level keys and `layer0`'s first-layer keys replaced."""
    return {**NETWORK, "layers": [{**NETWORK["layers"][0], **(layer0 or {})}, NETWORK["layers"][1]], **doc}


BAD_NET = "bad {tmp}/out/network.json: "
SIMULATE = ["simulate", "--input", "2,1,0,2"]
JUNCTION = "bad margins config: junction 'nosuch' is not a junction of soma2"
MLP = json.loads(RealMlp.init(4, 4, 3, 7).to_json())
SOPS_NULL = {"name": "x", "n_cells": 1, "ic_a": 1e-4, "clock_hz": 1e9, "static_on_chip_w": 0.0,
             "sops_rated": None}


@pytest.mark.parametrize("cfg,files,argv,message", [
    ({"margins": {"resolution": "0.02"}}, {}, ["margins"], "bad margins config: resolution"),
    ({"margins": {"count": "1"}}, {}, ["margins"], "bad margins config: count"),
    ({"margins": {"params": "b2.ic"}}, {}, ["margins"], "bad margins config: params"),
    ({"margins": 5}, {}, ["margins"], "bad config: margins"),
    ({"train": {"epochs": "10"}}, {}, ["train"], "bad train config: epochs"),
    ({"train": {"epochs": 10.5}}, {}, ["train"], "bad train config: epochs"),
    ({"train": {"learning_rate": "0.5"}}, {}, ["train"], "bad train config: learning_rate"),
    ({"seed": "7"}, {}, ["train"], "bad config: seed"),
    ({"power": "iris"}, {}, ["power"], "bad config: power"),
    ({"dataset": 5}, {}, ["train"], "bad config: dataset"),
    ([1, 2], {}, ["train"], "bad config: {tmp}/config.json must hold an object"),
    ({"sed": 3}, {}, ["power"], "bad config: unknown key 'sed'"),
    ({"margins": {"junction": "nosuch"}}, {}, ["margins"], JUNCTION),
    ({"margins": {"junction": "nosuch"}}, {}, ["pso", "--params", "b2.ic"], JUNCTION),
    (SMALL_SWARM, {}, ["pso", "--params", "b2.ic,ib.amp"], "pso tunes exactly one parameter"),
    (SMALL_SWARM, {}, ["pso", "--params", "b2.ic,nosuch.x"], "no device named 'nosuch'"),
    ({}, {"out/network.json": {"input_dim": 4}}, ["simulate"],
     "bad {tmp}/out/network.json: missing key 'layers'"),
    ({}, {"out/mlp.json": "not json"}, ["discretize"], "bad {tmp}/out/mlp.json: Expecting value"),
    ({}, {"p.json": [1]}, ["power", "--network", "{tmp}/p.json"], "malformed power config {tmp}/p.json"),
    ({}, {"p.json": SOPS_NULL}, ["power", "--network", "{tmp}/p.json"], "malformed power config {tmp}/p.json"),
    ({"train": {"learning_rate": math.nan}}, {}, ["train"], "bad train config: learning_rate must be positive"),
    ({"train": {"epochs": -3}}, {}, ["train"], "bad train config: epochs must be >= 0"),
    ({"dataset": "{tmp}/iris.csv"}, {"iris.csv": "nan,3.5,1.4,0.2,Iris-setosa\n"}, ["train"],
     "line 1: non-finite feature value"),
    ({"pso": {"n_iterations": 0}}, {}, ["pso", "--params", "b2.ic"], "bad pso config: n_iterations must be >= 1"),
    ({}, {"out/mlp.json": {**MLP, "w1": [row[:3] for row in MLP["w1"]]}}, ["discretize"],
     "bad {tmp}/out/mlp.json: 3 inputs and 3 outputs, the dataset has 4 and 3"),
    ({}, {"out/mlp.json": {**MLP, "w2": MLP["w2"][:2]}}, ["discretize"],
     "bad {tmp}/out/mlp.json: shapes w1 (4, 4), b1 (4,), w2 (2, 4), b2 (3,)"),
    ({}, {"out/mlp.json": {**MLP, "w1": [[math.nan] * 4] + MLP["w1"][1:]}}, ["discretize"],
     "bad {tmp}/out/mlp.json: non-finite weight or bias"),
    ({}, {}, ["margins", "--params", "b2.name"], "field 'name' of device b2 is not a number"),
    ({}, {}, ["margins", "--params", "k1.l1"], "field 'l1' of device k1 is not a number"),
    (SMALL_SWARM, {}, ["pso", "--params", "b2.np_"], "field 'np_' of device b2 is not a number"),
    ({}, {}, ["margins", "--params", "lloop.ic"], "lloop.ic is 0 at nominal"),
    (SMALL_SWARM, {}, ["pso", "--params", "lloop.ic"], "lloop.ic is 0 at nominal"),
    ({"margins": {"count": -1}}, {}, ["margins"], "bad margins config: count must be >= 0, got -1"),
    ({"margins": {"params": []}}, {}, ["margins"], "bad margins config: params names no selector"),
    ({}, {"out/network.json": network_with({"weights": [[1, 1.7, 1, -1]] * 4})}, SIMULATE,
     BAD_NET + "layer weights must be integers in [-2, 2], got 1.7"),
    ({}, {"out/network.json": network_with({"weights": [[1, 1, 1.9, -1]] * 4})}, ["simulate"],
     BAD_NET + "layer weights must be integers in [-2, 2], got 1.9"),
    ({}, {"out/network.json": network_with({"thresholds": [1, 1.7, 2, 5]})}, SIMULATE,
     BAD_NET + "thresholds [1.7] have no soma cell; the cells cover 1..6"),
    ({}, {"out/network.json": network_with({"thresholds": [1.9, 1, 2, 5]})}, ["simulate"],
     BAD_NET + "thresholds [1.9] have no soma cell; the cells cover 1..6"),
    ({}, {"out/network.json": network_with(clock_ps=0)}, SIMULATE,
     BAD_NET + "clock_ps must be positive and finite, got 0.0"),
    ({}, {"out/network.json": network_with(clock_ps=math.inf)}, SIMULATE,
     BAD_NET + "clock_ps must be positive and finite, got inf"),
    ({}, {"out/network.json": {**NETWORK, "layers": []}}, SIMULATE, BAD_NET + "layers must hold at least one layer"),
    ({}, {"out/network.json": network_with(input_dim=4.7)}, SIMULATE, BAD_NET + "layer 0 fan-in 4 != upstream width 4.7"),
    ({}, {"p.json": {**SOPS_NULL, "sops_rated": 0.0, "n_cells": 88.9}}, ["power", "--network", "{tmp}/p.json"],
     "malformed power config {tmp}/p.json: n_cells must be a whole number, got 88.9"),
    ({}, {"p.json": {**SOPS_NULL, "sops_rated": 0.0, "n_cells": "88"}}, ["power", "--network", "{tmp}/p.json"],
     'malformed power config {tmp}/p.json: n_cells must be a number, got "88"'),
    ({}, {"p.json": {**SOPS_NULL, "sops_rated": 0.0, "ic_a": "1e-4"}}, ["power", "--network", "{tmp}/p.json"],
     'malformed power config {tmp}/p.json: ic_a must be a number, got "1e-4"'),
    ({}, {"p.json": {**SOPS_NULL, "sops_rated": True}}, ["power", "--network", "{tmp}/p.json"],
     "malformed power config {tmp}/p.json: sops_rated must be a number, got true"),
    ({"split": {"seed": -1}}, {}, ["train"], "bad split config: seed must be >= 0, got -1"),
    ({"dataset": "{tmp}/iris.csv"}, {"iris.csv": "\n  \n"}, ["train"], "error: dataset is empty"),
    ({"dataset": "{tmp}/iris.csv"}, {"iris.csv": "5.1,3.5,1.4,0.2,Iris-setosa\n5.1,abc,1.4,0.2,Iris-setosa\n"},
     ["train"], "line 2: bad feature value"),
    ({}, {"out/network.json": network_with(clock_ps=99)}, SIMULATE,  # the BQ emits at most 99 // 20 = 4 pulses
     BAD_NET + "layer 0 has threshold 5, which needs clock_ps >= 100, got 99"),
])
def test_malformed_input_exits_2_naming_the_key(tmp_path, capsys, cfg, files, argv, message):
    for name, doc in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argv = [a.format(tmp=tmp_path) for a in argv]
    cfg = json.loads(json.dumps(cfg).replace("{tmp}", str(tmp_path)))
    assert run_with_config(tmp_path, cfg, *argv) == 2
    assert_clean_error(capsys, message.format(tmp=tmp_path))


@pytest.mark.parametrize("command", [["train"], ["discretize"], ["simulate"], ["power"], ["margins"],
                                     ["pso"], ["reproduce-paper"]])
@pytest.mark.parametrize("where", ["option", "config"])
def test_negative_seed_exits_2_before_any_stage(tmp_path, capsys, command, where):
    out = tmp_path / "out"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"seed": -1} if where == "config" else {}))
    seed = ["--seed", "-1"] if where == "option" else []
    assert run("--config", str(cfg), "--out", str(out), *seed, *command) == 2
    assert_clean_error(capsys, "error: bad config: seed must be >= 0, got -1")
    assert not out.exists()


def test_no_artifact_holds_a_carriage_return(tmp_path, fast_config):
    """Every file the writing commands leave ends its lines with LF alone."""
    out = tmp_path / "out"
    assert run("--config", fast_config, "--out", str(out), "reproduce-paper") in (0, 1)
    assert run("--config", fast_config, "--out", str(out), "simulate", "--input", "1,2,0,1") == 0
    assert run("--out", str(out), "margins") == 0
    assert run_with_config(tmp_path, SMALL_SWARM, "pso") == 0
    for cell in cli.NETLISTS:
        assert run("--out", str(tmp_path / cell), "simulate", "--mode", "circuit", "--netlist", cell) == 0
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file() and p.name != "config.json")
    names = {p.name for p in files}
    assert {"events.csv", "pulses.csv", "waveform.csv", "test_table.csv", "margins.csv", "pso_trace.csv",
            "pso_best.json", "sim_report.json", "metrics.json", "train_log.csv"} <= names
    assert [p.name for p in files if b"\r" in p.read_bytes()] == []
