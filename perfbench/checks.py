"""Output checks for the benchmark's operations.

Every check here is computed apart from the program: its own CSV parse,
its own threshold-gate arithmetic in numpy, its own trapezoid quadrature
and phase-crossing count, and CODATA constants rather than the
program's. Each function returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from pathlib import Path

import numpy as np

H_PLANCK = 6.62607015e-34  # J s, exact in SI since 2019
E_CHARGE = 1.602176634e-19  # C, exact in SI since 2019
PHI0 = H_PLANCK / (2.0 * E_CHARGE)  # flux quantum h/2e, Wb

IRIS_CLASSES = {"iris-setosa": 0, "iris-versicolor": 1, "iris-virginica": 2}
HARDWARE_THRESHOLDS = {1, 2, 5}
CHECKLIST_ITEMS = 11
ACCURACY_TARGET = 0.95


# --- threshold-gate networks ------------------------------------------------


def threshold_gate(layers, X) -> np.ndarray:
    """Binary outputs of a feed-forward threshold-gate net for each row of X.

    `layers` is a sequence of (weights [n_out x n_in], thresholds); a unit
    outputs 1 iff its weighted input sum reaches its threshold.
    """
    acts = np.atleast_2d(np.asarray(X, dtype=np.int64))
    for w, th in layers:
        acts = (acts @ np.asarray(w, dtype=np.int64).T >= np.asarray(th)).astype(np.int64)
    return acts


def bits_problems(expected, got, what: str) -> list[str]:
    expected = np.asarray(expected, dtype=np.int64)
    got = np.asarray(got, dtype=np.int64)
    if expected.shape != got.shape or not np.array_equal(expected, got):
        return [f"{what}: {got.tolist()} != threshold gate {expected.tolist()}"]
    return []


def class_of(bits) -> str:
    """Exactly one set bit -> its index; none -> 'None'; several -> 'ambiguous'."""
    on = [i for i, b in enumerate(bits) if b]
    if len(on) == 1:
        return str(on[0])
    return "None" if not on else "ambiguous"


# --- IRIS flow --------------------------------------------------------------


def parse_iris(text: str) -> tuple[np.ndarray, np.ndarray]:
    rows, labels = [], []
    for line in text.splitlines():
        if line.strip():
            *feats, name = line.strip().split(",")
            rows.append([float(v) for v in feats])
            labels.append(IRIS_CLASSES[name.strip().lower()])
    return np.asarray(rows), np.asarray(labels, dtype=np.int64)


def stratified_split(labels: np.ndarray, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Train and test row indices of the flow's stratified split.

    The partition is part of the flow's specification: per class in label
    order, rows in file order permuted by one numpy Generator.
    """
    rng = np.random.default_rng(seed)
    train, test = [], []
    for lab in sorted(set(labels.tolist())):
        group = np.flatnonzero(labels == lab)
        order = rng.permutation(len(group))
        n_train = round(len(group) * fraction)
        train.extend(group[order[:n_train]])
        test.extend(group[order[n_train:]])
    return np.asarray(train), np.asarray(test)


def quantize(X: np.ndarray, cuts) -> np.ndarray:
    cuts = np.asarray(cuts, dtype=float)
    return (X >= cuts[:, 0]).astype(np.int64) + (X >= cuts[:, 1]).astype(np.int64)


def accuracy(layers, codes: np.ndarray, labels: np.ndarray) -> float:
    out = threshold_gate(layers, codes)
    want = np.zeros_like(out)
    want[np.arange(len(labels)), labels] = 1
    return float(np.mean(np.all(out == want, axis=1)))


def parse_checklist(stdout: str) -> tuple[dict[str, bool], tuple[int, int] | None]:
    items = {m.group(2): m.group(1) == "ok" for m in re.finditer(r"^\[(ok|FAIL)\] (.+?): ", stdout, re.M)}
    m = re.search(r"^checklist: (\d+)/(\d+) passed$", stdout, re.M)
    return items, (int(m.group(1)), int(m.group(2))) if m else None


def iris_flow_problems(
    out_dir: Path,
    stdout: str,
    rc: int,
    X: np.ndarray,
    labels: np.ndarray,
    *,
    split_seed: int,
    train_fraction: float,
    reference: bool,
) -> list[str]:
    """Check one `reproduce-paper` run against its artifacts and the IRIS data."""
    problems: list[str] = []
    net = json.loads((out_dir / "network.json").read_text())
    layers = []
    for i, layer in enumerate(net["layers"]):
        w = np.asarray(layer["weights"])
        th = list(layer["thresholds"])
        if w.dtype.kind != "i" or w.min() < -2 or w.max() > 2:
            problems.append(f"layer {i}: weights outside the integers -2..2")
        if not set(th) <= HARDWARE_THRESHOLDS:
            problems.append(f"layer {i}: thresholds {th} outside {sorted(HARDWARE_THRESHOLDS)}")
        layers.append((w, th))

    cuts = json.loads((out_dir / "quantizer.json").read_text())["cuts"]
    metrics = json.loads((out_dir / "metrics.json").read_text())
    train_i, test_i = stratified_split(labels, train_fraction, split_seed)
    acc = {}
    for part, idx in (("train", train_i), ("test", test_i)):
        acc[part] = accuracy(layers, quantize(X[idx], cuts), labels[idx])
        if abs(acc[part] - metrics[part]["accuracy"]) > 1e-12:
            problems.append(f"{part} accuracy {metrics[part]['accuracy']} != recomputed {acc[part]}")
    if metrics["spiking_match_pct"] != 100.0:
        problems.append(f"spiking matches discrete on {metrics['spiking_match_pct']}% of samples")

    table = list(csv.DictReader(io.StringIO((out_dir / "test_table.csv").read_text())))
    codes = np.asarray([json.loads(r["input"]) for r in table], dtype=np.int64)
    for row, bits in zip(table, threshold_gate(layers, codes)):
        if not row["spiking_class"] == row["discrete_class"] == class_of(bits):
            problems.append(f"test vector {row['input']}: spiking {row['spiking_class']}, "
                            f"discrete {row['discrete_class']}, threshold gate {class_of(bits)}")

    e_pulse = json.loads((out_dir / "power_iris.json").read_text())["energy_per_pulse_j"]
    e_ref = 109e-6 * PHI0
    if abs(e_pulse - e_ref) > 0.005 * e_ref:
        problems.append(f"energy per pulse {e_pulse} J, CODATA 109 uA * h/2e = {e_ref} J")

    items, tally = parse_checklist(stdout)
    accurate = acc["train"] >= ACCURACY_TARGET
    if len(items) != CHECKLIST_ITEMS or tally != (sum(items.values()), CHECKLIST_ITEMS):
        problems.append(f"checklist shows {tally} over {len(items)} items")
    for name, ok in items.items():
        expect = accurate if name.startswith("IRIS training accuracy") else True
        if ok != expect:
            problems.append(f"checklist item {name!r} reads {'ok' if ok else 'FAIL'}")
    if rc != (0 if all(items.values()) else 1):
        problems.append(f"exit code {rc} with checklist {tally}")
    if reference and (rc != 0 or not accurate or tally != (CHECKLIST_ITEMS, CHECKLIST_ITEMS)):
        problems.append(f"reference seed: exit {rc}, checklist {tally}, training accuracy {acc['train']}")
    return problems


# --- circuit transients -----------------------------------------------------


def slip_count(phase: np.ndarray) -> int:
    """Number of phase values (2k+1)pi, k >= 0, that the trace reaches."""
    top = float(np.max(phase))
    return 0 if top < math.pi else int((top - math.pi) // (2.0 * math.pi)) + 1


def crossing_times(time_ps: np.ndarray, phase: np.ndarray) -> list[float]:
    """Times at which the phase first reaches each (2k+1)pi, interpolated."""
    out = []
    for k in range(slip_count(phase)):
        target = (2 * k + 1) * math.pi
        i = int(np.argmax(phase >= target))
        p0, p1 = phase[i - 1], phase[i]
        out.append(float(time_ps[i - 1] + (target - p0) / (p1 - p0) * (time_ps[i] - time_ps[i - 1])))
    return out


def trapezoid(time_ps: np.ndarray, values: np.ndarray) -> float:
    """Trapezoid-rule integral over the samples; time in ps, result in SI seconds."""
    return float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(time_ps))) * 1e-12


def flux_identity_problems(name: str, time_ps, voltage, phase) -> list[str]:
    """The trapezoid integral of V dt must equal (PHI0 / 2 pi) * (phase advance)."""
    dphi = float(phase[-1] - phase[0])
    got = 2.0 * math.pi * trapezoid(time_ps, voltage) / PHI0
    if abs(got - dphi) > 1e-3 * max(1.0, abs(dphi)):
        return [f"{name}: 2 pi/PHI0 * integral V dt = {got:.6f} rad, phase advance {dphi:.6f} rad"]
    return []


def pulse_flux_problems(name: str, time_ps, voltage, phase, window_ps: float = 40.0) -> list[str]:
    """Each detected pulse integrates to one flux quantum within 2%.

    The integral runs over +-window_ps around the pulse, clipped halfway to
    its neighbours. On the bundled somas the output junction is quiet 40 ps
    either side of its pulse, while +-10 ps cuts off 7-10% of the pulse's
    damped tail.
    """
    problems = []
    times = crossing_times(time_ps, phase)
    for k, tc in enumerate(times):
        left = max(tc - window_ps, 0.5 * (times[k - 1] + tc) if k else -math.inf)
        right = min(tc + window_ps, 0.5 * (tc + times[k + 1]) if k + 1 < len(times) else math.inf)
        mask = (time_ps >= left) & (time_ps <= right)
        flux = trapezoid(time_ps[mask], voltage[mask])
        if abs(flux / PHI0 - 1.0) > 0.02:
            problems.append(f"{name}: pulse at {tc:.2f} ps carries {flux / PHI0:.4f} PHI0")
    return problems


def read_waveform_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# --- margin scans -----------------------------------------------------------


def margin_side_problems(passes, side: str, margin: float, bound: float, resolution: float) -> list[str]:
    """A reported margin must pass at its edge and at half its width, and,
    short of the search bound, fail one resolution beyond its edge.

    `passes(fraction)` runs the pass test at nominal * (1 + fraction); the
    low side probes negative fractions.
    """
    sign = -1.0 if side == "low" else 1.0
    probes = [(margin, True), (0.5 * margin, True)]
    if margin < bound:
        probes.append((margin + resolution, False))
    return [
        f"{side} margin {margin:.4f}: pass test is {not want} at {sign * frac:+.4f}"
        for frac, want in probes
        if passes(sign * frac) != want
    ]
