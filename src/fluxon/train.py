"""IRIS ingestion, ternary feature coding, MLP training, GA discretization.

The pipeline runs in three stages: a real-valued 4-4-3 sigmoid MLP is
trained with plain gradient descent on MSE loss; features are coded to
{0,1,2} with per-feature equal-frequency tertiles fitted on the
training partition; and a genetic algorithm searches one scale factor
plus one threshold per neuron so that clamp(round(s*w), -2, 2) yields
an integer-weight network whose discrete accuracy is maximal.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .snn import DEFAULT_THRESHOLD_SET, WEIGHT_RANGE, LayerSpec, NetworkSpec

log = logging.getLogger("fluxon.train")

CLASS_NAMES = ("Iris-setosa", "Iris-versicolor", "Iris-virginica")
_CLASS_INDEX = {name.lower(): i for i, name in enumerate(CLASS_NAMES)}


class DataError(ValueError):
    pass


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class Sample:
    features: tuple[float, float, float, float]
    label: int


def load_iris(csv_text: str) -> list[Sample]:
    """Parse UCI-format rows `5.1,3.5,1.4,0.2,Iris-setosa`."""
    samples: list[Sample] = []
    for lineno, raw in enumerate(csv_text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise DataError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            feats = tuple(float(p) for p in parts[:4])
        except ValueError as exc:
            raise DataError(f"line {lineno}: bad feature value ({exc})") from None
        name = parts[4].strip().lower()
        if name not in _CLASS_INDEX:
            raise DataError(f"line {lineno}: unknown class name {parts[4]!r}")
        samples.append(Sample(feats, _CLASS_INDEX[name]))
    return samples


def split_dataset(
    samples: Sequence[Sample],
    train_fraction: float,
    seed: int,
    stratified: bool = True,
) -> tuple[list[Sample], list[Sample]]:
    """Deterministic train/test split; stratified keeps per-class ratios."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must lie in (0,1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    train: list[Sample] = []
    test: list[Sample] = []
    if stratified:
        labels = sorted({s.label for s in samples})
        for lab in labels:
            group = [s for s in samples if s.label == lab]
            order = rng.permutation(len(group))
            n_train = round(len(group) * train_fraction)
            if n_train == 0 or n_train == len(group):
                raise ValueError(
                    f"fraction {train_fraction} empties one side of class {lab}"
                )
            train.extend(group[i] for i in order[:n_train])
            test.extend(group[i] for i in order[n_train:])
    else:
        order = rng.permutation(len(samples))
        n_train = round(len(samples) * train_fraction)
        train = [samples[i] for i in order[:n_train]]
        test = [samples[i] for i in order[n_train:]]
    return train, test


# --- feature quantization ------------------------------------------------


@dataclass(frozen=True)
class FeatureQuantizer:
    """Per-feature tertile cut points mapping reals onto {0,1,2}."""

    cuts: np.ndarray  # shape (n_features, 2)

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        lo = self.cuts[:, 0][None, :]
        hi = self.cuts[:, 1][None, :]
        return ((X >= lo).astype(int) + (X >= hi).astype(int))

    def to_json(self) -> str:
        return json.dumps({"cuts": self.cuts.tolist()}, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "FeatureQuantizer":
        return FeatureQuantizer(np.asarray(json.loads(text)["cuts"], dtype=float))


def quantize_features(train_samples: Sequence[Sample]) -> tuple[FeatureQuantizer, np.ndarray]:
    """Fit equal-frequency tertiles on the training set and code it.

    A degenerate (constant) feature collapses both cuts and maps to a
    constant code; that case is logged as a warning rather than raised.
    """
    if not train_samples:
        raise ValueError("empty training set")
    X = np.asarray([s.features for s in train_samples], dtype=float)
    cuts = np.column_stack(
        [np.percentile(X, 100.0 / 3.0, axis=0), np.percentile(X, 200.0 / 3.0, axis=0)]
    )
    for j in range(X.shape[1]):
        if cuts[j, 0] == cuts[j, 1]:
            log.warning("feature %d is degenerate: both tertile cuts equal %.4g", j, cuts[j, 0])
    q = FeatureQuantizer(cuts)
    return q, q.apply(X)


def labels_of(samples: Sequence[Sample]) -> np.ndarray:
    return np.asarray([s.label for s in samples], dtype=int)


def features_of(samples: Sequence[Sample]) -> np.ndarray:
    return np.asarray([s.features for s in samples], dtype=float)


# --- real-valued MLP -----------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


@dataclass
class RealMlp:
    """Sigmoid MLP; weights row-per-neuron, one hidden layer."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @staticmethod
    def init(n_in: int, n_hidden: int, n_out: int, seed: int) -> "RealMlp":
        rng = np.random.default_rng(seed)
        return RealMlp(
            w1=rng.uniform(-1.0, 1.0, size=(n_hidden, n_in)),
            b1=rng.uniform(-1.0, 1.0, size=n_hidden),
            w2=rng.uniform(-1.0, 1.0, size=(n_out, n_hidden)),
            b2=rng.uniform(-1.0, 1.0, size=n_out),
        )

    def forward(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        H = _sigmoid(X @ self.w1.T + self.b1)
        O = _sigmoid(H @ self.w2.T + self.b2)
        return H, O

    def to_json(self) -> str:
        doc = {
            "w1": self.w1.tolist(),
            "b1": self.b1.tolist(),
            "w2": self.w2.tolist(),
            "b2": self.b2.tolist(),
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "RealMlp":
        doc = json.loads(text)
        return RealMlp(*(np.asarray(doc[k], dtype=float) for k in ("w1", "b1", "w2", "b2")))


def mlp_loss(mlp: RealMlp, X: np.ndarray, T: np.ndarray) -> float:
    _, O = mlp.forward(X)
    return 0.5 * float(np.mean((O - T) ** 2))


def _loss_and_gradients(
    mlp: RealMlp, X: np.ndarray, T: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """mlp_loss and its analytic full-batch gradients from one forward pass."""
    H, O = mlp.forward(X)
    n = O.size
    d_o = (O - T) / n * O * (1.0 - O)
    d_h = (d_o @ mlp.w2) * H * (1.0 - H)
    grads = {
        "w2": d_o.T @ H,
        "b2": d_o.sum(axis=0),
        "w1": d_h.T @ X,
        "b1": d_h.sum(axis=0),
    }
    return 0.5 * float(np.mean((O - T) ** 2)), grads


def mlp_gradients(mlp: RealMlp, X: np.ndarray, T: np.ndarray) -> dict[str, np.ndarray]:
    """Analytic full-batch gradients of mlp_loss."""
    return _loss_and_gradients(mlp, X, T)[1]


def one_hot(labels: Sequence[int], n_classes: int) -> np.ndarray:
    T = np.zeros((len(labels), n_classes))
    T[np.arange(len(labels)), list(labels)] = 1.0
    return T


def train_mlp(
    X: np.ndarray,
    T: np.ndarray,
    *,
    epochs: int,
    learning_rate: float,
    seed: int,
    n_hidden: int = 4,
    train_biases: bool = True,
) -> tuple[RealMlp, list[float]]:
    """Full-batch gradient descent; returns the net and the loss per epoch.

    The returned loss list has epochs+1 entries (initial loss first).
    Aborts on a non-finite loss. With train_biases=False the biases are
    pinned at zero, which keeps the learned function expressible by the
    integer-weight hardware decode (positive pulse-count thresholds
    cannot absorb arbitrary bias terms).
    """
    X = np.asarray(X, dtype=float)
    T = np.asarray(T, dtype=float)
    mlp = RealMlp.init(X.shape[1], n_hidden, T.shape[1], seed)
    if not train_biases:
        mlp.b1[:] = 0.0
        mlp.b2[:] = 0.0
    t0 = time.perf_counter()
    loss, grads = _loss_and_gradients(mlp, X, T)
    losses = [loss]
    for epoch in range(epochs):
        mlp.w1 -= learning_rate * grads["w1"]
        mlp.w2 -= learning_rate * grads["w2"]
        if train_biases:
            mlp.b1 -= learning_rate * grads["b1"]
            mlp.b2 -= learning_rate * grads["b2"]
        loss, grads = _loss_and_gradients(mlp, X, T)
        if not math.isfinite(loss):
            raise TrainingError(f"non-finite loss {loss} at epoch {epoch + 1}")
        losses.append(loss)
    log.info("mlp: %d epochs in %.3f s", epochs, time.perf_counter() - t0)
    return mlp, losses


# --- genetic discretization ----------------------------------------------

SCALE_BOUNDS = (0.05, 20.0)  # the per-neuron weight scales the GA searches


@dataclass(frozen=True)
class GaConfig:
    population: int = 100
    generations: int = 200
    mutation_rate: float = 0.15
    crossover_rate: float = 0.7
    elitism: int = 2
    seed: int = 0
    threshold_set: tuple[int, ...] = DEFAULT_THRESHOLD_SET

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if not 0 <= self.elitism <= self.population:
            raise ValueError("elitism must lie in [0, population]")
        for r in (self.mutation_rate, self.crossover_rate):
            if not 0.0 <= r <= 1.0:
                raise ValueError("rates must lie in [0,1]")
        if len(self.threshold_set) == 0:
            raise ValueError("threshold_set must not be empty")


def _decode(mlp: RealMlp, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer weights of a (P, n_neurons) block of scales: (P,H,I) and (P,O,H)."""
    lo, hi = WEIGHT_RANGE
    n_hidden = mlp.w1.shape[0]
    w1 = np.clip(np.round(scales[:, :n_hidden, None] * mlp.w1), lo, hi)
    w2 = np.clip(np.round(scales[:, n_hidden:, None] * mlp.w2), lo, hi)
    return w1, w2


def _population_fitness(
    mlp: RealMlp,
    scales: np.ndarray,
    thresholds: np.ndarray,
    X: np.ndarray,
    want: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accuracy, nonzero weight count and sum |w| of every candidate.

    X holds the distinct (input, label) rows as columns, want their
    one-hot labels as (n_out, rows) and counts how often each occurs.
    Weights, inputs and thresholds are small integers, so the float
    matmuls and comparisons are exact.
    """
    w1, w2 = _decode(mlp, scales)
    P, n_hidden, n_in = w1.shape
    H = (w1.reshape(-1, n_in) @ X).reshape(P, n_hidden, -1) >= thresholds[:, :n_hidden, None]
    O = w2 @ H.astype(float) >= thresholds[:, n_hidden:, None]
    acc = (np.all(O == want, axis=1) @ counts) / counts.sum()
    nz = np.count_nonzero(w1, axis=(1, 2)) + np.count_nonzero(w2, axis=(1, 2))
    mass = np.abs(w1).sum(axis=(1, 2)) + np.abs(w2).sum(axis=(1, 2))
    return acc, nz, mass


def _rank(acc: np.ndarray, nz: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best-first order (accuracy desc, nz asc, mass asc, index asc) and dense rank.

    Equal fitness shares a rank, so the first lowest rank among
    tournament candidates is the first best of them.
    """
    order = np.lexsort((mass, nz, -acc))
    keys = np.stack([acc, nz, mass])[:, order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(keys[:, 1:] != keys[:, :-1], axis=0)
    rank = np.empty(len(order), dtype=int)
    rank[order] = np.cumsum(new)
    return order, rank


def ga_discretize(
    mlp: RealMlp,
    Xq: np.ndarray,
    labels: Sequence[int],
    cfg: GaConfig,
) -> tuple[NetworkSpec, list[tuple[int, float, float]]]:
    """Search per-neuron scales and thresholds for the best discrete net.

    Chromosome: one scale in SCALE_BOUNDS (log-uniform init) and one
    threshold from threshold_set per neuron. Tournament selection
    (k=3), uniform crossover, Gaussian log-space mutation on scales,
    random-reset mutation on thresholds, plus elitism. Fitness is
    accuracy, ties broken by fewer nonzero weights, then by a smaller
    sum |w|. Returns the best NetworkSpec and the (generation, best,
    mean) accuracy trace.
    """
    Xq = np.asarray(Xq, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if len(Xq) == 0:
        raise ValueError("empty training data")
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    n_hidden = mlp.w1.shape[0]
    n_neurons = n_hidden + mlp.w2.shape[0]
    thr_set = np.asarray(cfg.threshold_set, dtype=int)
    s_lo, s_hi = SCALE_BOUNDS
    P = cfg.population
    # Accuracy depends on the training set only through how often each
    # distinct (input, label) pair occurs.
    rows, counts = np.unique(np.column_stack([Xq, labels]), axis=0, return_counts=True)
    X = rows[:, :-1].T.astype(float)
    want = np.zeros((mlp.w2.shape[0], len(rows)), dtype=bool)
    want[rows[:, -1], np.arange(len(rows))] = True

    scales = np.exp(rng.uniform(math.log(s_lo), math.log(s_hi), size=(P, n_neurons)))
    thresholds = rng.choice(thr_set, size=(P, n_neurons))
    # Identity-scale candidates with uniform thresholds: if the MLP's
    # weights are already integers in range, generation 0 contains the
    # undistorted network for each available threshold.
    for i, t in enumerate(thr_set[:P]):
        scales[i] = 1.0
        thresholds[i] = t

    def score(scales, thresholds):
        acc, nz, mass = _population_fitness(mlp, scales, thresholds, X, want, counts)
        order, rank = _rank(acc, nz, mass)
        i = order[0]
        key = (float(acc[i]), -int(nz[i]), -int(mass[i]))
        return order, rank, (scales[i], thresholds[i], key), float(np.mean(acc))

    order, rank, best, mean_acc = score(scales, thresholds)
    trace = [(0, best[2][0], mean_acc)]

    n_children = P - cfg.elitism
    for gen in range(1, cfg.generations + 1):
        # Draw in the order of a child-by-child loop, then breed the
        # whole block at once.
        cands = np.empty((n_children, 6), dtype=int)
        cross = np.zeros((n_children, n_neurons), dtype=bool)
        mut_s = np.empty((n_children, n_neurons), dtype=bool)
        mut_t = np.empty((n_children, n_neurons), dtype=bool)
        deltas, resets = [], []
        for c in range(n_children):
            cands[c] = rng.integers(0, P, size=6)
            if rng.random() < cfg.crossover_rate:
                cross[c] = rng.random(n_neurons) < 0.5
            m = mut_s[c] = rng.random(n_neurons) < cfg.mutation_rate
            k = np.count_nonzero(m)
            if k:
                deltas.append(rng.normal(0.0, 0.35, k))
            m = mut_t[c] = rng.random(n_neurons) < cfg.mutation_rate
            k = np.count_nonzero(m)
            if k:
                resets.append(rng.integers(0, len(thr_set), k))

        cands = cands.reshape(n_children, 2, 3)
        winner = np.argmin(rank[cands], axis=2)
        pa, pb = np.take_along_axis(cands, winner[:, :, None], axis=2)[:, :, 0].T
        child_s = np.where(cross, scales[pb], scales[pa])
        child_t = np.where(cross, thresholds[pb], thresholds[pa])
        if deltas:
            mutated = child_s[mut_s] * np.exp(np.concatenate(deltas))
            child_s[mut_s] = np.clip(mutated, s_lo, s_hi)
        if resets:
            child_t[mut_t] = thr_set[np.concatenate(resets)]
        elite = order[: cfg.elitism]
        scales = np.concatenate([scales[elite], child_s])
        thresholds = np.concatenate([thresholds[elite], child_t])

        order, rank, gen_best, mean_acc = score(scales, thresholds)
        if gen_best[2] > best[2]:
            best = gen_best
        trace.append((gen, best[2][0], mean_acc))

    w1, w2 = (w[0].astype(int) for w in _decode(mlp, best[0][None]))
    spec = NetworkSpec(
        input_dim=mlp.w1.shape[1],
        layers=(
            LayerSpec(w1, tuple(int(t) for t in best[1][:n_hidden]), "SM4"),
            LayerSpec(w2, tuple(int(t) for t in best[1][n_hidden:]), "SM2"),
        ),
        threshold_set=cfg.threshold_set,
    )
    log.info(
        "ga: %d generations of %d in %.3f s",
        cfg.generations, P, time.perf_counter() - t0,
    )
    return spec, trace
