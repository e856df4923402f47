"""Command-line entry point wiring the full pipeline.

Subcommands: train, discretize, simulate, power, margins, pso, and
reproduce-paper, which runs train -> discretize -> simulate -> power
with their default options and then prints a pass/fail checklist of the
paper's reference targets, read from the artifacts those stages wrote.
All artifacts are JSON/CSV without timestamps, so identical config and
seed reproduce them byte for byte.

Exit codes: 0 success, 1 internal failure, 2 user/config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import behavioral, power as powermod, snn, train as trainmod
from .circuit import (
    CircuitError,
    Junction,
    MarginError,
    NetlistError,
    detect_pulses_in,
    margin_nominal,
    margin_scan,
    parse_netlist,
    run_transient,
    write_waveform_csv,
)
from .core import SpikeTrain, csv_text, json_text, write_event_log
from .optimize import PsoConfig, margin_objective, pso_minimize

log = logging.getLogger("fluxon.cli")

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")  # the values FLUXON_LOG takes

# The bundled power networks with the SOPS and SOPS-per-watt reproduce-paper's checklist reads
POWER_TARGETS = {"iris": (1.2e10, 8.57e11), "nw_a": (4e12, 2.53e13), "nw_b": (1.6e16, 8e15)}
# The SOPS-per-watt order of the multi-core projection it reads for each technology
PROJECTION_TARGETS = {"RSFQ": 1e15, "eRSFQ": 1e16, "AQFP": 1e17}


def _record_defaults(record) -> dict:
    """The defaults of a config record's fields but `seed`, tuples as JSON lists."""
    fields = (f for f in dataclasses.fields(record) if f.default is not dataclasses.MISSING and f.name != "seed")
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default for f in fields}


DEFAULT_CONFIG = {
    "seed": 7,
    "dataset": None,  # bundled IRIS when null
    "out_dir": "out",
    "split": {"train_fraction": 0.8, "seed": 11, "stratified": True},
    "train": {"epochs": 3000, "learning_rate": 0.5, "train_biases": False},
    "ga": _record_defaults(trainmod.GaConfig),
    "pso": _record_defaults(PsoConfig),
    "power": list(POWER_TARGETS),
    "margins": {"netlist": "soma2", "params": ["ib.amp", "b2.ic"], "resolution": 0.02,
                "junction": "bout", "count": 1},
}

NETLISTS = {n: f"netlists/{n}.cir" for n in ("soma2", "soma3", "jtl", "sm1")}
POWER_CONFIGS = {n: f"power/{n}.json" for n in POWER_TARGETS}


class UserError(ValueError):
    """Configuration or usage problem; maps to exit code 2."""


def bundled_text(relpath: str) -> str:
    return resources.files("fluxon.data").joinpath(relpath).read_text()


def read_input(what: str, name_or_path: str | None, bundled: dict) -> str:
    """Text of the bundled file `bundled` maps the name to, else of the file at that path."""
    if name_or_path in bundled:
        return bundled_text(bundled[name_or_path])
    p = Path(name_or_path)
    if not p.is_file():
        raise UserError(f"{what} not found: {name_or_path}")
    return p.read_text()


def _kind(default) -> str:
    if isinstance(default, list):
        return f"a list of {_kind(default[0]).split()[-1]}s"
    return {type(None): "null or a string", bool: "a boolean", int: "an integer", float: "a number",
            str: "a string", dict: "an object"}[type(default)]


def _fits(default, val) -> bool:
    """Whether a config value has the JSON kind of its default; a bool is no integer."""
    if default is None:  # dataset: the bundled IRIS when null
        return val is None or type(val) is str
    if type(default) is float:
        return type(val) in (int, float)
    if type(default) is list:
        return type(val) is list and all(_fits(default[0], v) for v in val)
    return type(val) is type(default)


def _merge(base: dict, override: dict, section: str | None = None) -> dict:
    """`base` updated from `override`, whose every key `base` must have with a value of its kind."""
    where = f"bad {section} config" if section else "bad config"
    out = dict(base)
    for key, val in override.items():
        if key not in base:
            raise UserError(f"{where}: unknown key {key!r}")
        if not _fits(base[key], val):
            raise UserError(f"{where}: {key} must be {_kind(base[key])}, got {json.dumps(val)}")
        out[key] = _merge(base[key], val, key) if isinstance(val, dict) else val
    return out


def load_config(path: str | None, seed: int | None, out_dir: str | None) -> dict:
    """DEFAULT_CONFIG updated from the JSON file at `path` and the --seed and --out options."""
    cfg = dict(DEFAULT_CONFIG)
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise UserError(f"config not found: {path}")
        try:
            doc = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise UserError(f"malformed config {path}: {exc}") from None
        if not isinstance(doc, dict):
            raise UserError(f"bad config: {path} must hold an object, got {json.dumps(doc)}")
        cfg = _merge(cfg, doc)
    if seed is not None:
        cfg["seed"] = seed
    for where, section in (("bad config", cfg), ("bad split config", cfg["split"])):
        if section["seed"] < 0:
            raise UserError(f"{where}: seed must be >= 0, got {section['seed']}")
    if out_dir is not None:
        cfg["out_dir"] = out_dir
    return cfg


def _read_artifact(path: Path, stage: str, parse):
    """`parse` of an artifact an earlier stage wrote; a missing or malformed one is a UserError."""
    if not path.exists():
        raise UserError(f"{path} missing; run `fluxon {stage}` first")
    try:
        return parse(path.read_text())
    except KeyError as exc:
        raise UserError(f"bad {path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise UserError(f"bad {path}: {exc}") from None


def _dataset(cfg: dict):
    """The samples, their train and test parts, and the quantizer fitted on the train part."""
    samples = trainmod.load_iris(read_input("dataset", cfg["dataset"], {None: "iris.csv"}))
    if not samples:
        raise UserError("dataset is empty")
    sp = cfg["split"]
    try:
        train_s, test_s = trainmod.split_dataset(
            samples, sp["train_fraction"], sp["seed"], sp["stratified"]
        )
        quantizer, Xq_train = trainmod.quantize_features(train_s)
    except (TypeError, ValueError) as exc:
        raise UserError(f"bad split config: {exc}") from None
    return samples, train_s, test_s, quantizer, Xq_train


def cmd_train(cfg: dict, args) -> int:
    out = Path(cfg["out_dir"])
    _, train_s, _, quantizer, Xq_train = _dataset(cfg)
    y = trainmod.labels_of(train_s)
    tc = cfg["train"]
    try:
        mlp, losses = trainmod.train_mlp(
            Xq_train.astype(float),
            trainmod.one_hot(y, len(trainmod.CLASS_NAMES)),
            epochs=tc["epochs"],
            learning_rate=tc["learning_rate"],
            seed=cfg["seed"],
            train_biases=tc["train_biases"],
        )
    except ValueError as exc:
        raise UserError(f"bad train config: {exc}") from None
    (out / "mlp.json").write_text(mlp.to_json())
    (out / "quantizer.json").write_text(quantizer.to_json())
    (out / "train_log.csv").write_text(csv_text(("epoch", "loss"), enumerate(losses)))
    print(f"trained mlp: initial loss {losses[0]:.6f}, final loss {losses[-1]:.6f}")
    print(f"artifacts: {out/'mlp.json'}, {out/'quantizer.json'}, {out/'train_log.csv'}")
    return 0


def _ga_config(cfg: dict) -> trainmod.GaConfig:
    try:
        return trainmod.GaConfig(seed=cfg["seed"], **cfg["ga"])
    except (TypeError, ValueError) as exc:
        raise UserError(f"bad ga config: {exc}") from None


def _log_spiking(n: int, seconds: float, extra: str = "") -> None:
    log.info("spiking: %d inputs in %.3f s (%.1f µs/input%s)", n, seconds, 1e6 * seconds / max(n, 1), extra)


def _both_engines(spec: snn.NetworkSpec, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Final-layer bits of each input row from the logged spiking pass, then from the discrete
    evaluator; the log line adds the evaluator's time and the pass's neuron-response cache use."""
    before = snn._neuron_response.cache_info()
    t0 = time.perf_counter()
    spiking = np.array([snn.simulate_spiking(spec, xv).final_outputs for xv in inputs])
    t1 = time.perf_counter()
    after = snn._neuron_response.cache_info()
    discrete = snn.evaluate_discrete(spec, inputs)[-1]
    discrete_us = 1e6 * (time.perf_counter() - t1) / max(len(inputs), 1)
    _log_spiking(len(inputs), t1 - t0, f"; discrete {discrete_us:.1f} µs/input; response cache "
                 f"{after.hits - before.hits} hits, {after.misses - before.misses} misses")
    return spiking, discrete


def cmd_discretize(cfg: dict, args) -> int:
    ga_cfg = _ga_config(cfg)
    out = Path(cfg["out_dir"])
    mlp = _read_artifact(out / "mlp.json", "train", trainmod.RealMlp.from_json)
    samples, train_s, test_s, quantizer, Xq_train = _dataset(cfg)
    n_in, n_out = Xq_train.shape[1], len(trainmod.CLASS_NAMES)
    if mlp.w1.shape[1] != n_in or mlp.w2.shape[0] != n_out:
        raise UserError(f"bad {out / 'mlp.json'}: {mlp.w1.shape[1]} inputs and "
                        f"{mlp.w2.shape[0]} outputs, the dataset has {n_in} and {n_out}")
    y_train = trainmod.labels_of(train_s)
    spec, trace = trainmod.ga_discretize(mlp, Xq_train, y_train, ga_cfg)
    (out / "network.json").write_text(spec.to_json())
    (out / "ga_log.csv").write_text(csv_text(("generation", "best_fitness", "mean_fitness"), trace))

    Xq_test = quantizer.apply(trainmod.features_of(test_s))
    m_train = snn.accuracy_metrics(spec, Xq_train, y_train)
    m_test = snn.accuracy_metrics(spec, Xq_test, trainmod.labels_of(test_s))
    Xq_all = quantizer.apply(trainmod.features_of(samples))
    rows, counts = np.unique(Xq_all, axis=0, return_counts=True)  # each distinct input once
    spiking, discrete = _both_engines(spec, rows)
    match = int(counts[(spiking == discrete).all(axis=1)].sum())
    pct = 100.0 * match / len(samples)
    print(f"train accuracy {m_train['accuracy']:.4f}, test accuracy {m_test['accuracy']:.4f}")
    print(f"spiking/discrete match: {match}/{len(samples)} ({pct:.1f}%)")
    (out / "metrics.json").write_text(json_text({"train": m_train, "test": m_test, "spiking_match_pct": pct}))
    return 0


def _parse_input_vector(text: str, dim: int) -> np.ndarray:
    try:
        vec = np.asarray([int(v) for v in text.split(",")], dtype=int)
    except ValueError:
        raise UserError(f"malformed input vector {text!r}") from None
    if vec.shape != (dim,):
        raise UserError(f"input vector needs {dim} entries, got {len(vec)}")
    for i, level in enumerate(vec.tolist(), 1):
        if level not in (0, 1, 2):
            raise UserError(f"input vector {text!r}: entry {i} is {level}, levels are 0, 1 and 2")
    return vec


def cmd_simulate(cfg: dict, args) -> int:
    out = Path(cfg["out_dir"])
    flag, value = ("--netlist", args.netlist) if args.mode == "behavioral" else ("--input", args.input)
    if value is not None:
        raise UserError(f"simulate {flag} does not apply in {args.mode} mode")
    if args.mode == "behavioral":
        spec = _read_artifact(out / "network.json", "discretize", snn.NetworkSpec.from_json)
        if args.input is not None:
            vec = _parse_input_vector(args.input, spec.input_dim)
            t0 = time.perf_counter()
            report = snn.simulate_spiking(spec, vec)
            _log_spiking(1, time.perf_counter() - t0)
            with open(out / "events.csv", "w") as fh:
                write_event_log(fh, report.events)  # the writer sorts
            outputs = [o.tolist() for o in report.outputs]
            (out / "sim_report.json").write_text(
                json_text({"input": vec.tolist(), "outputs": outputs, "fired_class": report.fired_class}))
            print(f"input {vec.tolist()} -> fired_class {report.fired_class}")
            return 0
        # default: the quantized test partition, one row per unique vector
        _, _, test_s, quantizer, _ = _dataset(cfg)
        Xq = quantizer.apply(trainmod.features_of(test_s))
        if Xq.shape[1] != spec.input_dim:
            raise UserError(f"bad {out / 'network.json'}: {spec.input_dim} inputs, the dataset has {Xq.shape[1]}")
        inputs, first = np.unique(Xq, axis=0, return_index=True)  # sorted, each with its first label
        fired, ref = ([snn.classify_outputs(bits) for bits in eng] for eng in _both_engines(spec, inputs))
        rows = list(zip(inputs.tolist(), fired, ref, trainmod.labels_of(test_s)[first].tolist()))
        for xv, f, r, lab in rows:
            print(f"{xv} -> spiking {f} discrete {r} label {lab}")
        quoted = ((f'"{xv}"', *rest) for xv, *rest in rows)  # the vector's commas stay in one cell
        (out / "test_table.csv").write_text(csv_text(("input", "spiking_class", "discrete_class", "label"), quoted))
        print(f"{len(inputs)} unique test vectors; spiking == discrete: {fired == ref}")
        return 0
    name = args.netlist or "soma2"
    netlist = parse_netlist(read_input("netlist", name, NETLISTS))
    t0 = time.perf_counter()
    traces = run_transient(netlist)
    steps = len(traces.time_ps) - 1
    log.info("transient: %s: %d steps, %.3f Newton updates per step, rho %.2e in %.3f s", name,
             steps, traces.newton_iterations / max(steps, 1), traces.newton_rho,
             time.perf_counter() - t0)
    with open(out / "waveform.csv", "w") as fh:
        write_waveform_csv(fh, traces, netlist)
    events = [ev for j in traces.pulses for ev in detect_pulses_in(traces, j).events()]
    with open(out / "pulses.csv", "w") as fh:
        write_event_log(fh, events)
    if "bout" in traces.pulses:
        bout = detect_pulses_in(traces, "bout").times
        print(f"{name}: {len(bout)} output pulse(s) at {[round(t,2) for t in bout]} ps")
    print(f"artifacts: {out/'waveform.csv'}, {out/'pulses.csv'}")
    return 0


def _power_inputs(names: list[str]) -> list[powermod.PowerInputs]:
    """The power configs of names, each read and checked before any report is written."""
    inputs = []
    for name in names:
        text = read_input("power config", name, POWER_CONFIGS)
        try:
            inputs.append(powermod.PowerInputs.from_json(text))
        except (KeyError, TypeError, ValueError) as exc:
            raise UserError(f"malformed power config {name}: {exc}") from None
    return inputs


def cmd_power(cfg: dict, args) -> int:
    out = Path(cfg["out_dir"])
    t0 = time.perf_counter()
    rows = []
    for inputs in _power_inputs(args.network or cfg["power"]):
        rep = powermod.total_power(inputs)
        (out / f"power_{rep.name}.json").write_text(rep.to_json())
        rows.append(rep)
    print(f"{'name':8} {'dynamic_w':>12} {'on_chip_w':>12} {'total_w':>10} {'sops':>10} {'sops_per_w':>11} {'worst_sops':>11}")
    for r in rows:
        print(
            f"{r.name:8} {r.dynamic_w:12.4g} {r.on_chip_w:12.4g} {r.total_w:10.4g} "
            f"{r.sops:10.4g} {r.sops_per_watt:11.4g} {r.sops_worst_case:11.4g}"
        )
    proj = json.loads(bundled_text("power/nw_d.json"))  # the multi-core scaling projection
    for tech in powermod.TECHNOLOGIES:
        rep = powermod.scale_projection(
            proj["cores"], proj["neurons_per_core"], proj["per_core_power_w"], proj["per_core_sops"],
            tech, per_core_static_w=proj["per_core_static_w"], cooling_overhead=proj["cooling"],
        )
        (out / f"power_{rep.name}.json").write_text(rep.to_json())
        print(f"{rep.name}: sops={rep.sops:.3g} total_w={rep.total_w:.4g} sops/W={rep.sops_per_watt:.3g}")
    log.info("power: %d networks in %.3f s", len(rows), time.perf_counter() - t0)
    return 0


def _margins_setup(cfg: dict, args):
    """The netlist, selectors and pass test of a margins or pso run, checked before any transient."""
    mc = cfg["margins"]
    params = args.params.split(",") if args.params else mc["params"]
    if not params:
        raise UserError("bad margins config: params names no selector")
    junction, count = mc["junction"].lower(), mc["count"]
    if count < 0:
        raise UserError(f"bad margins config: count must be >= 0, got {count}")
    name = args.netlist or mc["netlist"]
    netlist = parse_netlist(read_input("netlist", name, NETLISTS))
    for sel in params:
        try:
            margin_nominal(netlist, sel)
        except KeyError as exc:
            raise UserError(exc.args[0]) from None
    if junction not in {d.name for d in netlist.devices if isinstance(d, Junction)}:
        raise UserError(f"bad margins config: junction {junction!r} is not a junction of {name}")
    return netlist, params, lambda traces: len(detect_pulses_in(traces, junction)) == count


def cmd_margins(cfg: dict, args) -> int:
    out = Path(cfg["out_dir"])
    netlist, params, pass_test = _margins_setup(cfg, args)
    results = []
    for sel in params:
        t0 = time.perf_counter()
        try:
            results.append(margin_scan(netlist, sel, pass_test, resolution=cfg["margins"]["resolution"]))
        except (MarginError, NetlistError):
            raise
        except ValueError as exc:  # margin_scan checks the resolution before any transient
            raise UserError(f"bad margins config: {exc}") from None
        log.info("margins: %s in %.3f s", sel, time.perf_counter() - t0)
    rows = [(sel, f"{low * 100:.1f}", f"{high * 100:.1f}") for sel, (low, high) in zip(params, results)]
    for sel, low, high in rows:
        print(f"{sel}: -{low}% / +{high}%")
    (out / "margins.csv").write_text(csv_text(("param", "low_pct", "high_pct"), rows))
    return 0


def cmd_pso(cfg: dict, args) -> int:
    out = Path(cfg["out_dir"])
    netlist, params, pass_test = _margins_setup(cfg, args)
    params = params if args.params else params[:1]  # the first of margins.params
    if len(params) != 1:
        raise UserError(f"pso tunes exactly one parameter, got {len(params)}: {params}")
    nominal = margin_nominal(netlist, params[0])
    obj = margin_objective(netlist, params, pass_test)
    try:
        pso_cfg = PsoConfig(
            bounds=(tuple(sorted((nominal * 0.8, nominal * 1.2))),),  # a negative nominal flips the pair
            seed=cfg["seed"],
            **cfg["pso"],
        )
    except (TypeError, ValueError) as exc:
        raise UserError(f"bad pso config: {exc}") from None
    t0 = time.perf_counter()
    best_x, best_f, trace = pso_minimize(obj, pso_cfg)
    n_evals = pso_cfg.n_particles * pso_cfg.n_iterations
    log.info("pso: %d evaluations in %.3f s", n_evals, time.perf_counter() - t0)
    (out / "pso_trace.csv").write_text(csv_text(("iteration", "best_score", "mean_score"), trace))
    (out / "pso_best.json").write_text(json_text({"best_vector": list(best_x), "best_score": best_f}))
    print(f"pso best score {best_f:.6g} at {np.round(best_x, 6).tolist()}")
    return 0


def cmd_reproduce(cfg: dict, args) -> int:
    # a bad ga section, or a power list short of a network the checklist reads,
    # fails before any artifact is written
    _ga_config(cfg)
    written = {inputs.name for inputs in _power_inputs(cfg["power"])}
    for name in POWER_TARGETS:
        if name not in written:
            raise UserError(f"reproduce-paper checks power_{name}.json, which the power config does not write")
    for stage_args in args.stages:
        t0 = time.perf_counter()
        stage_args.handler(cfg, stage_args)
        log.info("reproduce-paper: %s stage in %.3f s", stage_args.command, time.perf_counter() - t0)

    out = Path(cfg["out_dir"])
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str):
        checks.append((name, ok, detail))
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")

    # the power reports the rows read, as the power stage wrote them
    reports = {name: json.loads(next(out.glob(f"power_{name}.json")).read_text())
               for name in (*POWER_TARGETS, *(f"*-{tech}" for tech in PROJECTION_TARGETS))}

    iris = reports["iris"]
    e, dyn = iris["energy_per_pulse_j"], iris["dynamic_w"]
    check("energy per pulse @109uA", abs(e - 2.254e-19) / 2.254e-19 < 0.005, f"{e:.4g} J (target 2.254e-19)")
    check("worst-case dynamic power, 88 cells @1GHz", abs(dyn - 1.98e-8) / 1.98e-8 < 0.01, f"{dyn:.4g} W (target 1.98e-08)")

    for name, (sops_t, spw_t) in POWER_TARGETS.items():
        sops, spw = map(reports[name].get, ("sops", "sops_per_watt"))
        ok = abs(sops - sops_t) / sops_t < 0.01 and abs(spw - spw_t) / spw_t < 0.01
        check(f"{name} SOPS / SOPS-per-watt", ok, f"{sops:.3g} / {spw:.3g}")
    for tech, spw_t in PROJECTION_TARGETS.items():
        sops, spw = map(reports[f"*-{tech}"].get, ("sops", "sops_per_watt"))
        ok = 1e17 <= sops <= 1e19 and 0.1 <= spw / spw_t <= 10.0
        check(f"multi-core {tech} projection", ok, f"{sops:.2g} SOPS, {spw:.2g} SOPS/W (~{spw_t:.0g})")

    soma2, soma3 = behavioral.soma_for_threshold(2), behavioral.soma_for_threshold(3)
    fire = lambda p, ts: len(behavioral.soma_fire_times(p, SpikeTrain("t", ts)))
    ok = (
        fire(soma2, (0.0, 65.0)) == 1
        and fire(soma2, (0.0, 66.0)) == 0
        and fire(soma3, (0.0, 20.0, 40.0)) == 1
        and fire(soma3, (0.0, 30.0, 60.0)) == 0
    )
    burst = behavioral.soma_fire_times(soma2, SpikeTrain("t", tuple(20.0 * k for k in range(6))))
    ok = ok and len(burst) == 3 and all(abs(b - a - 40.0) < 1e-9 for a, b in zip(burst.times, burst.times[1:]))
    check("behavioral soma timing windows", ok, "2@65ps fires, 66ps misses; 3@20ps fires, 30ps misses; 6 pulses -> 3 @40ps")

    metrics = json.loads((out / "metrics.json").read_text())
    check("IRIS training accuracy >= 0.95", metrics["train"]["accuracy"] >= 0.95, f"{metrics['train']['accuracy']:.4f}")
    check("spiking == discrete on all samples", metrics["spiking_match_pct"] == 100.0, f"{metrics['spiking_match_pct']:.1f}%")

    n_fail = sum(1 for _, ok, _ in checks if not ok)
    print(f"\nchecklist: {len(checks) - n_fail}/{len(checks)} passed")
    return 0 if n_fail == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fluxon", description=__doc__)
    ap.add_argument("--config", help="JSON config overriding the built-in defaults")
    ap.add_argument("--seed", type=int, help="seed for every stochastic stage")
    ap.add_argument("--out", help="artifact directory (default ./out)")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("train").set_defaults(handler=cmd_train)
    sub.add_parser("discretize").set_defaults(handler=cmd_discretize)
    sim = sub.add_parser("simulate")
    sim.set_defaults(handler=cmd_simulate)
    sim.add_argument("--mode", choices=["behavioral", "circuit"], default="behavioral")
    sim.add_argument("--input", help="comma-separated integer input vector")
    sim.add_argument("--netlist", help="bundled cell name or netlist path")
    pw = sub.add_parser("power")
    pw.set_defaults(handler=cmd_power)
    pw.add_argument("--network", nargs="*", help="bundled names or config paths")
    for name, handler in (("margins", cmd_margins), ("pso", cmd_pso)):
        mg = sub.add_parser(name)
        mg.set_defaults(handler=handler)
        mg.add_argument("--netlist")
        mg.add_argument("--params", help="comma-separated name.field selectors")
    # The stages reproduce-paper runs, with their default options. Parsed here, so no
    # parser is held while they run: its reference cycles would then reach the oldest
    # GC generation and stay on the heap, one parser per run.
    stages = [ap.parse_args([stage]) for stage in ("train", "discretize", "simulate", "power")]
    sub.add_parser("reproduce-paper").set_defaults(handler=cmd_reproduce, stages=stages)
    return ap


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("FLUXON_LOG", "WARNING")
    if level.upper() not in LOG_LEVELS:
        print(f"error: FLUXON_LOG must be one of {', '.join(LOG_LEVELS)}, got {level!r}", file=sys.stderr)
        return 2
    logging.basicConfig(level=level.upper())
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed, args.out)
        Path(cfg["out_dir"]).mkdir(parents=True, exist_ok=True)
        return args.handler(cfg, args)
    except (UserError, MarginError, NetlistError, CircuitError, trainmod.DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        log.exception("internal failure")
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
