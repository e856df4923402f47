"""The benchmark's four closed-loop workloads.

A workload builds its inputs from the seed in its constructor (that is
the set-up `setup_s` times) and then offers one round of operations:
`ops()` lists (label, call) pairs, and every run attempts whole rounds.
`check(label, result)` returns the problems found in one op's output.
Ops whose label is in `known_faults` fail because of a known fault in
the program; they count as failed without making the run incorrect.

Each workload calls the program through module attributes at call time,
so the tracer in tracing.py sees every call.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import itertools
import shutil
from pathlib import Path

import numpy as np

import checks

REFERENCE_SEED = 7


def _netlist_text(fluxon_dir: Path, cell: str, n_inputs: int | None = None) -> str:
    """Bundled netlist text, with the input pulse train cut or extended to n_inputs."""
    text = (fluxon_dir / "data" / "netlists" / f"{cell}.cir").read_text()
    if n_inputs is None:
        return text
    lines = text.splitlines()
    for i, line in enumerate(lines):
        toks = line.split()
        if toks[:4] == ["vin", "in", "0", "ptrain"]:
            toks[6] = str(n_inputs)  # ptrain <delay> <spacing> <count> <width> <amp>
            lines[i] = " ".join(toks)
            return "\n".join(lines) + "\n"
    raise ValueError(f"{cell}: no vin ptrain line")


class IrisFlow:
    """One op: `fluxon reproduce-paper` with the default config into a fresh
    directory. A round runs the reference seed and the workload seed."""

    name = "iris-flow"
    known_faults: frozenset = frozenset()

    def __init__(self, seed: int, workdir: Path):
        from fluxon import cli

        self.cli = cli
        self.workdir = workdir
        fluxon_dir = Path(cli.__file__).parent
        self.X, self.labels = checks.parse_iris((fluxon_dir / "data" / "iris.csv").read_text())
        split = cli.DEFAULT_CONFIG["split"]
        self.split_seed, self.train_fraction = split["seed"], split["train_fraction"]
        self.seeds = (REFERENCE_SEED, seed)
        self.count = itertools.count()
        self.first_dir: dict[int, Path] = {}

    def ops(self):
        return [(f"seed{s}", lambda s=s: self._flow(s)) for s in self.seeds]

    def _flow(self, seed: int):
        out = self.workdir / f"flow{next(self.count)}"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(["--seed", str(seed), "--out", str(out), "reproduce-paper"])
        return seed, out, rc, buf.getvalue()

    def check(self, label, result):
        seed, out, rc, stdout = result
        problems = checks.iris_flow_problems(
            out, stdout, rc, self.X, self.labels,
            split_seed=self.split_seed, train_fraction=self.train_fraction,
            reference=seed == REFERENCE_SEED,
        )
        first = self.first_dir.setdefault(seed, out)
        if first != out:
            names = sorted(p.name for p in first.iterdir())
            _, differ, missing = filecmp.cmpfiles(first, out, names, shallow=False)
            if differ or missing or names != sorted(p.name for p in out.iterdir()):
                problems.append(f"seed {seed} artifacts differ from its first run: {differ + missing}")
            shutil.rmtree(out)
        return problems


class SpikingEquivalence:
    """One op: `simulate_spiking` plus `evaluate_discrete` on one ternary input.
    A round covers every input of every network in a seeded pool."""

    name = "spiking-equivalence"
    known_faults: frozenset = frozenset()
    SHAPES = ((4, 4, 3), (4, 16, 3))
    NETS_PER_SHAPE = 32

    def __init__(self, seed: int, workdir: Path):
        from fluxon import snn

        self.snn = snn
        rng = np.random.default_rng(seed)
        self.layers = []  # per network: [(weights, thresholds), ...]
        for shape in self.SHAPES:
            for _ in range(self.NETS_PER_SHAPE):
                self.layers.append([
                    (rng.integers(-2, 3, size=(n_out, n_in)), rng.choice([1, 2, 5], size=n_out))
                    for n_in, n_out in zip(shape, shape[1:])
                ])
        self.specs = [
            snn.NetworkSpec(
                input_dim=layers[0][0].shape[1],
                layers=tuple(snn.LayerSpec(w, tuple(th), "SM4" if i == 0 else "SM2")
                             for i, (w, th) in enumerate(layers)),
            )
            for layers in self.layers
        ]
        self.inputs = np.asarray(list(itertools.product(range(3), repeat=4)))
        self._ops = [
            ((n, k), lambda spec=spec, x=x: self._case(spec, x))
            for n, spec in enumerate(self.specs)
            for k, x in enumerate(self.inputs)
        ]
        self.expected: dict[int, np.ndarray] = {}

    def ops(self):
        return self._ops

    def _case(self, spec, x):
        return self.snn.simulate_spiking(spec, x).final_outputs, self.snn.evaluate_discrete(spec, x)[-1]

    def check(self, label, result):
        n, k = label
        if n not in self.expected:
            self.expected[n] = checks.threshold_gate(self.layers[n], self.inputs)
        spiking, discrete = result
        want = self.expected[n][k]
        return (checks.bits_problems(want, spiking, f"net {n} input {k} spiking")
                + checks.bits_problems(want, discrete, f"net {n} input {k} discrete"))


class CellTransients:
    """One op: a cell simulated as `fluxon simulate --mode circuit` does it:
    `run_transient`, `detect_pulses_in` on every junction, `write_waveform_csv`."""

    name = "cell-transients"
    known_faults: frozenset = frozenset()
    # (cell, input pulses or None for the bundled stimulus, expected bout pulses)
    CELLS = (
        ("soma2", 1, 0), ("soma2", 2, 1), ("soma3", 2, 0), ("soma3", 3, 1),
        ("jtl", None, None), ("sm1", None, None),
    )

    def __init__(self, seed: int, workdir: Path):
        from fluxon.circuit import netlist, pulses, transient

        self.transient, self.pulses = transient, pulses
        self.workdir = workdir
        fluxon_dir = Path(netlist.__file__).parents[1]
        order = np.random.default_rng(seed).permutation(len(self.CELLS))
        self._cells = {}
        for i in order:
            cell, n_in, want = self.CELLS[i]
            label = cell if n_in is None else f"{cell}x{n_in}"
            self._cells[label] = (netlist.parse_netlist(_netlist_text(fluxon_dir, cell, n_in)), want)
        self.count = itertools.count()

    def ops(self):
        return [(label, lambda label=label: self._simulate(label)) for label in self._cells]

    def _simulate(self, label):
        nl = self._cells[label][0]
        traces = self.transient.run_transient(nl)
        counts = {j: len(self.pulses.detect_pulses_in(traces, j)) for j in traces.junction_phase}
        path = self.workdir / f"{label}-{next(self.count)}.csv"
        with open(path, "w") as fh:
            self.transient.write_waveform_csv(fh, traces, nl)
        return traces, counts, path

    def check(self, label, result):
        traces, counts, path = result
        nl, want_bout = self._cells[label]
        t = traces.time_ps
        problems = []
        if want_bout is not None and counts.get("bout") != want_bout:
            problems.append(f"bout gives {counts.get('bout')} pulses, expected {want_bout}")
        for j, phase in traces.junction_phase.items():
            problems += checks.flux_identity_problems(j, t, traces.junction_voltage[j], phase)
            slips = checks.slip_count(phase)
            if slips != counts[j]:
                problems.append(f"{j}: detected {counts[j]} pulses, phase slips {slips} times")
            if label == "jtl" and slips != 1:
                problems.append(f"jtl {j} slips {slips} times, expected 1")
        if want_bout:
            problems += checks.pulse_flux_problems("bout", t, traces.junction_voltage["bout"],
                                                   traces.junction_phase["bout"])
        header, data = checks.read_waveform_csv(path)
        path.unlink()
        want_header = ["time_ps"] + [f"{kind}({name})" for kind, name in nl.prints]
        if header != want_header or data.shape != (len(t), len(want_header)):
            problems.append(f"waveform CSV {header} {data.shape}, expected {want_header} x {len(t)} rows")
            return problems
        for col, (kind, name) in enumerate(nl.prints, start=1):
            trace = traces.junction_phase[name] if kind == "phi" else traces.node_voltage[name]
            if not np.array_equal(data[:, col], trace):
                problems.append(f"waveform column {header[col]} differs from the simulated trace")
        return problems


class MarginScan:
    """One op: `margin_scan` with the `fluxon margins` defaults on soma2."""

    name = "margin-scan"
    # margin_scan returns the search bound as soon as the bound passes; on
    # soma2 the b2.ic pass region has a gap from -80% to -20%, so the
    # reported low margin of 90% fails at its half-way probe.
    known_faults = frozenset({"b2.ic"})
    PARAMS = ("ib.amp", "b2.ic")
    RESOLUTION = 0.02
    BOUND = 0.9  # margin_scan's default search bound
    JUNCTION, COUNT = "bout", 1

    def __init__(self, seed: int, workdir: Path):
        from fluxon.circuit import margins, netlist, pulses, transient

        self.margins, self.pulses, self.transient = margins, pulses, transient
        fluxon_dir = Path(netlist.__file__).parents[1]
        self.netlist = netlist.parse_netlist(_netlist_text(fluxon_dir, "soma2"))
        order = np.random.default_rng(seed).permutation(len(self.PARAMS))
        self.params = [self.PARAMS[i] for i in order]
        self.checked: dict[tuple, list[str]] = {}

    def pass_test(self, traces) -> bool:
        return len(self.pulses.detect_pulses_in(traces, self.JUNCTION)) == self.COUNT

    def ops(self):
        return [(p, lambda p=p: self.margins.margin_scan(self.netlist, p, self.pass_test,
                                                          resolution=self.RESOLUTION))
                for p in self.params]

    def check(self, label, result):
        key = (label, *result)
        if key not in self.checked:
            _, _, nominal = self.netlist.resolve_selector(label)

            def passes(fraction):
                nl = self.netlist.with_param(label, nominal * (1.0 + fraction))
                return self.pass_test(self.transient.run_transient(nl))

            low, high = result
            self.checked[key] = (
                checks.margin_side_problems(passes, "low", low, self.BOUND, self.RESOLUTION)
                + checks.margin_side_problems(passes, "high", high, self.BOUND, self.RESOLUTION)
            )
        return self.checked[key]


WORKLOADS = {w.name: w for w in (IrisFlow, SpikingEquivalence, CellTransients, MarginScan)}
