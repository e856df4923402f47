"""Command-line entry point wiring the full pipeline.

Subcommands: train, discretize, simulate, power, margins, pso, and the
reproduce-paper meta-command that chains train -> discretize ->
simulate -> power and prints a pass/fail checklist of the bundled
reference targets. All artifacts are JSON/CSV without timestamps, so
identical config and seed reproduce them byte for byte.

Exit codes: 0 success, 1 internal failure, 2 user/config error.
"""

from __future__ import annotations

import argparse
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
    MarginError,
    NetlistError,
    detect_pulses_in,
    margin_scan,
    parse_netlist,
    run_transient,
    write_waveform_csv,
)
from .core import write_event_log
from .optimize import Objective, PsoConfig, margin_objective, pso_minimize

log = logging.getLogger("fluxon.cli")

DEFAULT_CONFIG = {
    "seed": 7,
    "dataset": None,  # bundled IRIS when null
    "out_dir": "out",
    "split": {"train_fraction": 0.8, "seed": 11, "stratified": True},
    "train": {"epochs": 3000, "learning_rate": 0.5, "train_biases": False},
    "ga": {
        "population": 100,
        "generations": 200,
        "mutation_rate": 0.15,
        "crossover_rate": 0.7,
        "elitism": 2,
    },
    "pso": {"n_particles": 12, "n_iterations": 60},
    "power": ["iris", "nw_a", "nw_b"],
    "margins": {"netlist": "soma2", "params": ["ib.amp", "b2.ic"], "resolution": 0.02,
                "junction": "bout", "count": 1},
}

BUNDLED_NETLISTS = ("soma2", "soma3", "jtl", "sm1")


class UserError(ValueError):
    """Configuration or usage problem; maps to exit code 2."""


def bundled_text(relpath: str) -> str:
    return resources.files("fluxon.data").joinpath(relpath).read_text()


def load_netlist_text(name_or_path: str) -> str:
    if name_or_path in BUNDLED_NETLISTS:
        return bundled_text(f"netlists/{name_or_path}.cir")
    p = Path(name_or_path)
    if not p.exists():
        raise UserError(f"netlist not found: {name_or_path}")
    return p.read_text()


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def load_config(path: str | None, seed: int | None, out_dir: str | None) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise UserError(f"config not found: {path}")
        try:
            cfg = _merge(cfg, json.loads(p.read_text()))
        except json.JSONDecodeError as exc:
            raise UserError(f"malformed config {path}: {exc}") from None
    if seed is not None:
        cfg["seed"] = seed
    if out_dir is not None:
        cfg["out_dir"] = out_dir
    return cfg


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _load_samples(cfg: dict) -> list:
    if cfg["dataset"] is None:
        text = bundled_text("iris.csv")
    else:
        p = Path(cfg["dataset"])
        if not p.exists():
            raise UserError("dataset not found")
        text = p.read_text()
    samples = trainmod.load_iris(text)
    if not samples:
        raise UserError("dataset is empty")
    return samples


def _split_and_quantize(cfg: dict, samples):
    sp = cfg["split"]
    try:
        train_s, test_s = trainmod.split_dataset(
            samples, sp["train_fraction"], sp["seed"], sp.get("stratified", True)
        )
        quantizer, Xq_train = trainmod.quantize_features(train_s)
    except (TypeError, ValueError) as exc:
        raise UserError(f"bad split config: {exc}") from None
    return train_s, test_s, quantizer, Xq_train


def cmd_train(cfg: dict) -> int:
    out = Path(cfg["out_dir"])
    samples = _load_samples(cfg)
    train_s, _, quantizer, Xq_train = _split_and_quantize(cfg, samples)
    y = trainmod.labels_of(train_s)
    tc = cfg["train"]
    mlp, losses = trainmod.train_mlp(
        Xq_train.astype(float),
        trainmod.one_hot(y, 3),
        epochs=tc["epochs"],
        learning_rate=tc["learning_rate"],
        seed=cfg["seed"],
        train_biases=tc.get("train_biases", False),
    )
    _write(out / "mlp.json", mlp.to_json())
    _write(out / "quantizer.json", quantizer.to_json())
    _write(
        out / "train_log.csv",
        "epoch,loss\n" + "".join(f"{i},{repr(l)}\n" for i, l in enumerate(losses)),
    )
    print(f"trained mlp: initial loss {losses[0]:.6f}, final loss {losses[-1]:.6f}")
    print(f"artifacts: {out/'mlp.json'}, {out/'quantizer.json'}, {out/'train_log.csv'}")
    return 0


def cmd_discretize(cfg: dict) -> int:
    out = Path(cfg["out_dir"])
    mlp_path = out / "mlp.json"
    if not mlp_path.exists():
        raise UserError(f"{mlp_path} missing; run `fluxon train` first")
    mlp = trainmod.RealMlp.from_json(mlp_path.read_text())
    samples = _load_samples(cfg)
    train_s, test_s, quantizer, Xq_train = _split_and_quantize(cfg, samples)
    y_train = trainmod.labels_of(train_s)
    try:
        ga_cfg = trainmod.GaConfig(seed=cfg["seed"], **cfg["ga"])
    except (TypeError, ValueError) as exc:
        raise UserError(f"bad ga config: {exc}") from None
    spec, trace = trainmod.ga_discretize(mlp, Xq_train, y_train, ga_cfg)
    _write(out / "network.json", spec.to_json())
    _write(
        out / "ga_log.csv",
        "generation,best_fitness,mean_fitness\n"
        + "".join(f"{g},{repr(b)},{repr(m)}\n" for g, b, m in trace),
    )

    Xq_test = quantizer.apply(trainmod.features_of(test_s))
    m_train = snn.accuracy_metrics(spec, Xq_train, y_train)
    m_test = snn.accuracy_metrics(spec, Xq_test, trainmod.labels_of(test_s))
    Xq_all = quantizer.apply(trainmod.features_of(samples))
    t0 = time.perf_counter()
    match = sum(
        int(
            np.array_equal(
                snn.evaluate_discrete(spec, xv)[-1],
                snn.simulate_spiking(spec, xv).final_outputs,
            )
        )
        for xv in Xq_all
    )
    log.info("spiking: %d inputs in %.3f s", len(Xq_all), time.perf_counter() - t0)
    pct = 100.0 * match / len(samples)
    print(f"train accuracy {m_train['accuracy']:.4f}, test accuracy {m_test['accuracy']:.4f}")
    print(f"spiking/discrete match: {match}/{len(samples)} ({pct:.1f}%)")
    _write(
        out / "metrics.json",
        json.dumps(
            {"train": m_train, "test": m_test, "spiking_match_pct": pct},
            indent=2,
            sort_keys=True,
        ),
    )
    return 0


def _parse_input_vector(text: str, dim: int) -> np.ndarray:
    try:
        vec = np.asarray([int(v) for v in text.split(",")], dtype=int)
    except ValueError:
        raise UserError(f"malformed input vector {text!r}") from None
    if vec.shape != (dim,):
        raise UserError(f"input vector needs {dim} entries, got {len(vec)}")
    return vec


def cmd_simulate(cfg: dict, args) -> int:
    out = Path(cfg["out_dir"])
    if args.mode == "behavioral":
        net_path = out / "network.json"
        if not net_path.exists():
            raise UserError(f"{net_path} missing; run `fluxon discretize` first")
        # network.json does not record the threshold set the GA drew from
        thr_set = cfg["ga"].get("threshold_set", snn.DEFAULT_THRESHOLD_SET)
        try:
            spec = snn.NetworkSpec.from_json(net_path.read_text(), tuple(thr_set))
        except (TypeError, ValueError) as exc:
            raise UserError(f"bad {net_path}: {exc}") from None
        if args.input:
            vec = _parse_input_vector(args.input, spec.input_dim)
            t0 = time.perf_counter()
            report = snn.simulate_spiking(spec, vec)
            log.info("spiking: 1 inputs in %.3f s", time.perf_counter() - t0)
            with open(out / "events.csv", "w") as fh:
                write_event_log(fh, report.event_log)
            _write(
                out / "sim_report.json",
                json.dumps(
                    {
                        "input": vec.tolist(),
                        "outputs": [o.tolist() for o in report.outputs],
                        "fired_class": report.fired_class,
                    },
                    indent=2,
                    sort_keys=True,
                ),
            )
            print(f"input {vec.tolist()} -> fired_class {report.fired_class}")
            return 0
        # default: the quantized test partition, one row per unique vector
        samples = _load_samples(cfg)
        _, test_s, quantizer, _ = _split_and_quantize(cfg, samples)
        Xq = quantizer.apply(trainmod.features_of(test_s))
        seen: dict[tuple, tuple] = {}
        t0 = time.perf_counter()
        for xv, lab in zip(Xq, trainmod.labels_of(test_s)):
            key = tuple(int(v) for v in xv)
            if key not in seen:
                rep = snn.simulate_spiking(spec, xv)
                ref = snn.classify_outputs(snn.evaluate_discrete(spec, xv)[-1])
                seen[key] = (rep.fired_class, ref, int(lab))
        log.info("spiking: %d inputs in %.3f s", len(seen), time.perf_counter() - t0)
        rows = ["input,spiking_class,discrete_class,label"]
        for key in sorted(seen):
            fired, ref, lab = seen[key]
            rows.append(f"\"{list(key)}\",{fired},{ref},{lab}")
            print(f"{list(key)} -> spiking {fired} discrete {ref} label {lab}")
        _write(out / "test_table.csv", "\n".join(rows) + "\n")
        agree = all(f == r for f, r, _ in seen.values())
        print(f"{len(seen)} unique test vectors; spiking == discrete: {agree}")
        return 0
    if args.mode == "circuit":
        name = args.netlist or "soma2"
        netlist = parse_netlist(load_netlist_text(name))
        t0 = time.perf_counter()
        traces = run_transient(netlist)
        steps = len(traces.time_ps) - 1
        log.info("transient: %s: %d steps, %.3f Newton updates per step, rho %.2e in %.3f s", name,
                 steps, traces.newton_iterations / max(steps, 1), traces.newton_rho,
                 time.perf_counter() - t0)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "waveform.csv", "w") as fh:
            write_waveform_csv(fh, traces, netlist)
        events = []
        for jname in traces.junction_phase:
            events.extend(detect_pulses_in(traces, jname).events())
        with open(out / "pulses.csv", "w") as fh:
            write_event_log(fh, events)
        out_pulses = detect_pulses_in(traces, "bout") if "bout" in traces.junction_phase else None
        if out_pulses is not None:
            print(f"{name}: {len(out_pulses)} output pulse(s) at {[round(t,2) for t in out_pulses.times]} ps")
        print(f"artifacts: {out/'waveform.csv'}, {out/'pulses.csv'}")
        return 0
    raise UserError(f"unknown simulate mode {args.mode!r}")


def cmd_power(cfg: dict, args) -> int:
    out = Path(cfg["out_dir"])
    names = args.network or cfg["power"]
    t0 = time.perf_counter()
    rows = []
    for name in names:
        if name in ("iris", "nw_a", "nw_b"):
            text = bundled_text(f"power/{name}.json")
        else:
            p = Path(name)
            if not p.exists():
                raise UserError(f"power config not found: {name}")
            text = p.read_text()
        try:
            inputs = powermod.PowerInputs.from_json(text)
        except (KeyError, ValueError) as exc:
            raise UserError(f"malformed power config {name}: {exc}") from None
        rep = powermod.total_power(inputs)
        _write(out / f"power_{rep.name}.json", rep.to_json())
        rows.append(rep)
    print(f"{'name':8} {'dynamic_w':>12} {'on_chip_w':>12} {'total_w':>10} {'sops':>10} {'sops_per_w':>11} {'worst_sops':>11}")
    for r in rows:
        print(
            f"{r.name:8} {r.dynamic_w:12.4g} {r.on_chip_w:12.4g} {r.total_w:10.4g} "
            f"{r.sops:10.4g} {r.sops_per_watt:11.4g} {r.sops_worst_case:11.4g}"
        )
    # scaling projection from the bundled multi-core sizing
    proj_cfg = json.loads(bundled_text("power/nw_d.json"))
    for tech in ("RSFQ", "eRSFQ", "AQFP"):
        rep = powermod.scale_projection(
            proj_cfg["cores"],
            proj_cfg["neurons_per_core"],
            proj_cfg["per_core_power_w"],
            proj_cfg["per_core_sops"],
            tech,
            per_core_static_w=proj_cfg["per_core_static_w"],
            cooling_overhead=proj_cfg.get("cooling", 400.0),
        )
        _write(out / f"power_{rep.name}.json", rep.to_json())
        print(f"{rep.name}: sops={rep.sops:.3g} total_w={rep.total_w:.4g} sops/W={rep.sops_per_watt:.3g}")
    log.info("power: %d networks in %.3f s", len(rows), time.perf_counter() - t0)
    return 0


def _margins_pass_test(junction: str, count: int):
    def pass_test(traces) -> bool:
        return len(detect_pulses_in(traces, junction)) == count

    return pass_test


def cmd_margins(cfg: dict, args) -> int:
    out = Path(cfg["out_dir"])
    mc = dict(cfg["margins"])
    if args.netlist:
        mc["netlist"] = args.netlist
    if args.params:
        mc["params"] = args.params.split(",")
    netlist = parse_netlist(load_netlist_text(mc["netlist"]))
    pass_test = _margins_pass_test(mc.get("junction", "bout"), mc.get("count", 1))
    for sel in mc["params"]:
        try:
            netlist.resolve_selector(sel)
        except KeyError as exc:
            raise UserError(str(exc)) from None
    resolution = mc.get("resolution", 0.02)
    results = []
    for sel in mc["params"]:
        t0 = time.perf_counter()
        try:
            results.append(margin_scan(netlist, sel, pass_test, resolution=resolution))
        except (MarginError, NetlistError):
            raise
        except ValueError as exc:  # margin_scan checks the resolution before any transient
            raise UserError(f"bad margins config: {exc}") from None
        log.info("margins: %s in %.3f s", sel, time.perf_counter() - t0)
    rows = ["param,low_pct,high_pct"]
    for sel, (low, high) in zip(mc["params"], results):
        rows.append(f"{sel},{low * 100:.1f},{high * 100:.1f}")
        print(f"{sel}: -{low * 100:.1f}% / +{high * 100:.1f}%")
    _write(out / "margins.csv", "\n".join(rows) + "\n")
    return 0


def cmd_pso(cfg: dict, args) -> int:
    out = Path(cfg["out_dir"])
    pc = cfg["pso"]
    if args.benchmark:
        if args.benchmark == "sphere":
            obj = Objective(lambda x: float(np.sum(x * x)), "sphere")
            bounds = tuple((-10.0, 10.0) for _ in range(5))
            pso_cfg = PsoConfig(bounds=bounds, n_particles=30, n_iterations=200, seed=cfg["seed"])
        elif args.benchmark == "rosenbrock":
            obj = Objective(
                lambda x: float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2),
                "rosenbrock",
            )
            pso_cfg = PsoConfig(
                bounds=((-2.0, 2.0), (-2.0, 2.0)),
                n_particles=40,
                n_iterations=400,
                seed=cfg["seed"],
            )
        else:
            raise UserError(f"unknown benchmark {args.benchmark!r}")
    else:
        name = args.netlist or cfg["margins"]["netlist"]
        params = (args.params.split(",") if args.params else cfg["margins"]["params"])[:1]
        netlist = parse_netlist(load_netlist_text(name))
        try:
            _, _, nominal = netlist.resolve_selector(params[0])
        except KeyError as exc:
            raise UserError(str(exc)) from None
        mc = cfg["margins"]
        obj = margin_objective(
            netlist,
            params,
            _margins_pass_test(mc.get("junction", "bout"), mc.get("count", 1)),
            resolution=0.05,
        )
        try:
            pso_cfg = PsoConfig(
                bounds=((nominal * 0.8, nominal * 1.2),),
                n_particles=pc.get("n_particles", 4),
                n_iterations=pc.get("n_iterations", 10),
                seed=cfg["seed"],
            )
        except (TypeError, ValueError) as exc:
            raise UserError(f"bad pso config: {exc}") from None
    t0 = time.perf_counter()
    best_x, best_f, trace = pso_minimize(obj, pso_cfg)
    n_evals = pso_cfg.n_particles * pso_cfg.n_iterations
    log.info("pso: %d evaluations in %.3f s", n_evals, time.perf_counter() - t0)
    _write(
        out / "pso_trace.csv",
        "iteration,best_score,mean_score\n"
        + "".join(f"{i},{repr(b)},{repr(m)}\n" for i, b, m in trace),
    )
    _write(
        out / "pso_best.json",
        json.dumps({"best_vector": list(best_x), "best_score": best_f}, indent=2, sort_keys=True),
    )
    print(f"pso best score {best_f:.6g} at {np.round(best_x, 6).tolist()}")
    return 0


def cmd_reproduce(cfg: dict, args) -> int:
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str):
        checks.append((name, ok, detail))
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")

    e = powermod.energy_per_pulse(109e-6)
    check("energy per pulse @109uA", abs(e - 2.254e-19) / 2.254e-19 < 0.005, f"{e:.4g} J (target 2.254e-19)")
    dyn = powermod.dynamic_power(88, 109e-6, 1e9)
    check("worst-case dynamic power, 88 cells @1GHz", abs(dyn - 1.98e-8) / 1.98e-8 < 0.01, f"{dyn:.4g} W (target 1.98e-08)")

    targets = {"iris": (1.2e10, 8.57e11), "nw_a": (4e12, 2.53e13), "nw_b": (1.6e16, 8e15)}
    for name, (sops_t, spw_t) in targets.items():
        rep = powermod.total_power(powermod.PowerInputs.from_json(bundled_text(f"power/{name}.json")))
        ok = abs(rep.sops - sops_t) / sops_t < 0.01 and abs(rep.sops_per_watt - spw_t) / spw_t < 0.01
        check(f"{name} SOPS / SOPS-per-watt", ok, f"{rep.sops:.3g} / {rep.sops_per_watt:.3g}")
    proj_cfg = json.loads(bundled_text("power/nw_d.json"))
    for tech, spw_t in (("RSFQ", 1e15), ("eRSFQ", 1e16), ("AQFP", 1e17)):
        rep = powermod.scale_projection(
            proj_cfg["cores"], proj_cfg["neurons_per_core"], proj_cfg["per_core_power_w"],
            proj_cfg["per_core_sops"], tech, per_core_static_w=proj_cfg["per_core_static_w"],
        )
        ok = 1e17 <= rep.sops <= 1e19 and 0.1 <= rep.sops_per_watt / spw_t <= 10.0
        check(f"multi-core {tech} projection", ok, f"{rep.sops:.2g} SOPS, {rep.sops_per_watt:.2g} SOPS/W (~{spw_t:.0g})")

    soma2 = behavioral.soma_for_threshold(2)
    soma3 = behavioral.soma_for_threshold(3)
    from .core import SpikeTrain

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

    rc = cmd_train(cfg)
    rc |= cmd_discretize(cfg)
    metrics = json.loads((Path(cfg["out_dir"]) / "metrics.json").read_text())
    check("IRIS training accuracy >= 0.95", metrics["train"]["accuracy"] >= 0.95, f"{metrics['train']['accuracy']:.4f}")
    check("spiking == discrete on all samples", metrics["spiking_match_pct"] == 100.0, f"{metrics['spiking_match_pct']:.1f}%")

    ns = argparse.Namespace(mode="behavioral", input=None, netlist=None)
    cmd_simulate(cfg, ns)
    cmd_power(cfg, argparse.Namespace(network=None))

    n_fail = sum(1 for _, ok, _ in checks if not ok)
    print(f"\nchecklist: {len(checks) - n_fail}/{len(checks)} passed")
    return 0 if n_fail == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fluxon", description=__doc__)
    ap.add_argument("--config", help="JSON config overriding the built-in defaults")
    ap.add_argument("--seed", type=int, help="seed for every stochastic stage")
    ap.add_argument("--out", help="artifact directory (default ./out)")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("train")
    sub.add_parser("discretize")
    sim = sub.add_parser("simulate")
    sim.add_argument("--mode", choices=["behavioral", "circuit"], default="behavioral")
    sim.add_argument("--input", help="comma-separated integer input vector")
    sim.add_argument("--netlist", help="bundled cell name or netlist path")
    pw = sub.add_parser("power")
    pw.add_argument("--network", nargs="*", help="bundled names or config paths")
    mg = sub.add_parser("margins")
    mg.add_argument("--netlist")
    mg.add_argument("--params", help="comma-separated name.field selectors")
    ps = sub.add_parser("pso")
    ps.add_argument("--benchmark", help="sphere | rosenbrock")
    ps.add_argument("--netlist")
    ps.add_argument("--params")
    sub.add_parser("reproduce-paper")
    return ap


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("FLUXON_LOG", "WARNING").upper())
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed, args.out)
        Path(cfg["out_dir"]).mkdir(parents=True, exist_ok=True)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "discretize":
            return cmd_discretize(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, args)
        if args.command == "power":
            return cmd_power(cfg, args)
        if args.command == "margins":
            return cmd_margins(cfg, args)
        if args.command == "pso":
            return cmd_pso(cfg, args)
        if args.command == "reproduce-paper":
            return cmd_reproduce(cfg, args)
        raise UserError(f"unknown command {args.command!r}")
    except (UserError, MarginError, NetlistError, CircuitError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except trainmod.DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        log.exception("internal failure")
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
