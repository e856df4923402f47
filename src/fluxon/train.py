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
from typing import Callable, Sequence

import numpy as np

from .behavioral import DEFAULT_T_MAX
from .core import json_text
from .snn import WEIGHT_RANGE, LayerSpec, NetworkSpec

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
        if not all(map(math.isfinite, feats)):
            raise DataError(f"line {lineno}: non-finite feature value in {line!r}")
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
    if stratified:  # one group per label, in label order
        groups = {f"class {lab}": [s for s in samples if s.label == lab]
                  for lab in sorted({s.label for s in samples})}
    else:
        groups = {"the split": list(samples)}
    train: list[Sample] = []
    test: list[Sample] = []
    for what, group in groups.items():
        order = rng.permutation(len(group))
        n_train = round(len(group) * train_fraction)
        if n_train == 0 or n_train == len(group):
            raise ValueError(f"fraction {train_fraction} empties one side of {what}")
        train.extend(group[i] for i in order[:n_train])
        test.extend(group[i] for i in order[n_train:])
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
        return json_text({"cuts": self.cuts.tolist()})

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
        return json_text({k: getattr(self, k).tolist() for k in ("w1", "b1", "w2", "b2")})

    @staticmethod
    def from_json(text: str) -> "RealMlp":
        """Raises ValueError unless w1 is (H, I), b1 (H,), w2 (O, H), b2 (O,), all finite."""
        doc = json.loads(text)
        w1, b1, w2, b2 = (np.asarray(doc[k], dtype=float) for k in ("w1", "b1", "w2", "b2"))
        if (b1.ndim != 1 or b2.ndim != 1 or w1.ndim != 2 or w1.shape[0] != b1.size
                or w2.shape != (b2.size, b1.size)):
            raise ValueError(f"shapes w1 {w1.shape}, b1 {b1.shape}, w2 {w2.shape}, "
                             f"b2 {b2.shape} are not (H, I), (H,), (O, H), (O,)")
        if not all(np.isfinite(a).all() for a in (w1, b1, w2, b2)):
            raise ValueError("non-finite weight or bias")
        return RealMlp(w1, b1, w2, b2)


def mlp_loss(mlp: RealMlp, X: np.ndarray, T: np.ndarray) -> float:
    _, O = mlp.forward(X)
    return 0.5 * float(np.mean((O - T) ** 2))


def _views(flat: np.ndarray, like: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Views of flat shaped as the arrays in like, laid end to end in order."""
    ends = np.cumsum([a.size for a in like])
    return [flat[e - a.size:e].reshape(a.shape) for a, e in zip(like, ends)]


def _loss_and_grads(
    layers: Sequence[np.ndarray], X: np.ndarray, T: np.ndarray
) -> tuple[np.ndarray, np.ndarray, Callable[[], float]]:
    """The epoch function of one training run, and the arrays it works on.

    layers is w1, w2, then b1, b2 if the biases train. Returns
    (params, grads, epoch): params holds the negated layers in one flat
    array, grads their gradients in the same layout, and epoch() writes
    the gradients at params into grads and returns mlp_loss there.
    Every array is allocated here, once. Without b1 and b2 the biases
    must be zero: adding a zero bias only turns -0.0 into +0.0, and exp
    maps both to 1.

    The values are those of forward, mlp_loss and the plain backward
    pass, bit for bit. Negation is exact and round-to-nearest is
    symmetric in sign, so X @ (-w1).T + (-b1) is -(X @ w1.T + b1), whose
    exp is the sigmoid's exp(-z) with no negation; -(w - g) is (-w) + g,
    so the update adds the gradient. The backward pass meets -w2 once,
    in d_o @ -w2, and cancels it by scaling with H - 1 = -(1 - H).
    """
    biases = len(layers) == 4
    params = -np.concatenate([a.ravel() for a in layers])
    grads = np.empty_like(params)
    w1, w2, *b = _views(params, layers)
    g1, g2, *gb = _views(grads, layers)
    w1t, w2t = w1.T, w2.T
    H, d_h, t_h = (np.empty((len(X), w1.shape[0])) for _ in range(3))
    O, E, d_o, t_o = (np.empty((len(X), w2.shape[0])) for _ in range(4))
    d_ht, d_ot, size = d_h.T, d_o.T, E.size
    # np.dot makes the BLAS call that @ makes on these 2-D operands, with less dispatch
    dot, add, subtract, multiply, divide = np.dot, np.add, np.subtract, np.multiply, np.divide
    exp, reciprocal, reduce = np.exp, np.reciprocal, np.add.reduce

    def epoch() -> float:
        dot(X, w1t, H)
        if biases:
            add(H, b[0], H)
        exp(H, H)
        add(H, 1.0, H)
        reciprocal(H, H)
        dot(H, w2t, O)
        if biases:
            add(O, b[1], O)
        exp(O, O)
        add(O, 1.0, O)
        reciprocal(O, O)
        subtract(O, T, E)
        multiply(E, E, t_o)
        loss = 0.5 * float(reduce(t_o, None) / size)
        divide(E, size, d_o)
        multiply(d_o, O, d_o)
        subtract(1.0, O, t_o)
        multiply(d_o, t_o, d_o)
        dot(d_o, w2, d_h)
        multiply(d_h, H, d_h)
        subtract(H, 1.0, t_h)
        multiply(d_h, t_h, d_h)
        dot(d_ht, X, g1)
        dot(d_ot, H, g2)
        if biases:
            reduce(d_h, 0, None, gb[0])
            reduce(d_o, 0, None, gb[1])
        return loss

    return params, grads, epoch


def mlp_gradients(mlp: RealMlp, X: np.ndarray, T: np.ndarray) -> dict[str, np.ndarray]:
    """Analytic full-batch gradients of mlp_loss."""
    layers = (mlp.w1, mlp.w2, mlp.b1, mlp.b2)
    _, grads, epoch = _loss_and_grads(layers, np.asarray(X, dtype=float), np.asarray(T, dtype=float))
    epoch()
    return dict(zip(("w1", "w2", "b1", "b2"), _views(grads, layers)))


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
    cannot absorb arbitrary bias terms). Negative epochs or a learning
    rate that is not positive and finite raise ValueError.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if not 0.0 < learning_rate < math.inf:
        raise ValueError(f"learning_rate must be positive and finite, got {learning_rate}")
    X = np.asarray(X, dtype=float)
    T = np.asarray(T, dtype=float)
    mlp = RealMlp.init(X.shape[1], n_hidden, T.shape[1], seed)
    if not train_biases:
        mlp.b1[:] = 0.0
        mlp.b2[:] = 0.0
    t0 = time.perf_counter()
    layers = [mlp.w1, mlp.w2] + ([mlp.b1, mlp.b2] if train_biases else [])
    params, grads, epoch = _loss_and_grads(layers, X, T)
    multiply, add, isfinite = np.multiply, np.add, math.isfinite
    with np.errstate(over="ignore"):  # exp(-z) overflows to inf as the sigmoid saturates to 0
        losses = [epoch()]
        for n in range(1, epochs + 1):
            multiply(grads, learning_rate, grads)
            add(params, grads, params)
            loss = epoch()
            if not isfinite(loss):
                raise TrainingError(f"non-finite loss {loss} at epoch {n}")
            losses.append(loss)
    for a, v in zip(layers, _views(params, layers)):
        np.negative(v, a)
    dt = time.perf_counter() - t0
    log.info("mlp: %d epochs in %.3f s (%s epochs/s)", epochs, dt, f"{epochs / dt:,.0f}")
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
    threshold_set: tuple[int, ...] = (1, 2, 5)  # the soma thresholds the GA searches

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
        if not set(self.threshold_set) <= DEFAULT_T_MAX.keys():
            raise ValueError(f"threshold_set values must be soma cell thresholds "
                             f"{min(DEFAULT_T_MAX)}..{max(DEFAULT_T_MAX)}")


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

    Each generation draws one block per kind for its n_children =
    population - elitism children, in this order: (n_children, 2, 3)
    tournament candidates; n_children crossover decisions;
    (n_children, n_neurons) crossover masks, kept where the decision
    holds; scale-mutation masks; threshold-mutation masks; one normal
    per scale mutation; one threshold index per threshold mutation.
    The last two are consumed in row-major order of their masks.

    Candidates are ranked by one int64 key, ((total - correct) * (K + 1)
    + nz) * (m * K + 1) + sum |w|, for K weights of magnitude at most m
    and `correct` of `total` training samples. nz <= K and sum |w| <=
    m * K, so each field stays below its multiplier: a lower key is a
    fitter candidate, exactly as the tuple (accuracy desc, nz asc, sum
    |w| asc) orders them, and equal keys are equal tuples. A stable sort
    of the keys then breaks ties by index, and the first lowest key among
    tournament candidates is the first fittest of them.
    """
    Xq = np.asarray(Xq, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if len(Xq) == 0:
        raise ValueError("empty training data")
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    (n_hidden, n_in), n_out = mlp.w1.shape, mlp.w2.shape[0]
    n = n_hidden + n_out  # neurons
    n_w1 = n_hidden * n_in
    thr_set = np.asarray(cfg.threshold_set, dtype=int)
    s_lo, s_hi = SCALE_BOUNDS
    lo, hi = WEIGHT_RANGE
    P = cfg.population
    # Accuracy depends on the training set only through how often each
    # distinct (input, label) pair occurs.
    rows, counts = np.unique(np.column_stack([Xq, labels]), axis=0, return_counts=True)
    X = rows[:, :-1].T.astype(float)
    want = np.zeros((n_out, 1, len(rows)), dtype=bool)
    want[rows[:, -1], 0, np.arange(len(rows))] = True
    total = int(counts.sum())
    # The weights of w1 then w2 in one row, and the neuron whose scale each takes.
    weights = np.concatenate([mlp.w1.ravel(), mlp.w2.ravel()])
    neuron = np.repeat(np.arange(n), [n_in] * n_hidden + [n_hidden] * n_out)
    # the multipliers of the fitness key
    m_mass = max(-lo, hi) * weights.size + 1
    m_nz = (weights.size + 1) * m_mass
    ones, nz_cost = np.ones(weights.size), np.full(weights.size, float(m_mass))
    h = np.empty((n_hidden, P, len(rows)))
    o = np.empty((n_out, P, len(rows)))
    hits = np.empty(o.shape, dtype=bool)

    def decode(pop):
        """clamp(round(s * w), lo, hi) of every weight: a (len(pop), K) block."""
        w = pop[:, neuron]
        w *= weights
        np.rint(w, w)
        return np.clip(w, lo, hi, out=w)

    def score(pop):
        """Accuracy and fitness key of every candidate.

        Weights, inputs and thresholds are small integers, so the float
        matmuls and comparisons are exact, as are the float sums of at
        most K weights in the key. Neuron-major layouts keep the
        threshold tests and the all-outputs test on long rows.
        """
        w = decode(pop)
        thr = pop[:, n:].T[:, :, None]
        np.matmul(w[:, :n_w1].reshape(P, n_hidden, n_in).transpose(1, 0, 2), X, out=h)
        np.greater_equal(h, thr[:n_hidden], out=h)  # 1.0 where a hidden neuron fires
        np.matmul(w[:, n_w1:].reshape(P, n_out, n_hidden), h.transpose(1, 0, 2),
                  out=o.transpose(1, 0, 2))
        np.greater_equal(o, thr[n_hidden:], out=hits)
        np.equal(hits, want, out=hits)
        correct = np.logical_and.reduce(hits, 0) @ counts
        np.abs(w, w)
        cost = w @ ones + np.sign(w) @ nz_cost  # m_mass * nz + sum |w|
        return correct / total, (total - correct) * m_nz + cost.astype(np.int64)

    # A candidate is one row: a scale per neuron, then a threshold per neuron.
    pop = np.concatenate([
        np.exp(rng.uniform(math.log(s_lo), math.log(s_hi), size=(P, n))),
        rng.choice(thr_set, size=(P, n)),
    ], axis=1)
    # Identity-scale candidates with uniform thresholds: if the MLP's
    # weights are already integers in range, generation 0 contains the
    # undistorted network for each available threshold.
    for i, t in enumerate(thr_set[:P]):
        pop[i, :n] = 1.0
        pop[i, n:] = t

    n_children = P - cfg.elitism
    child, pair = np.arange(n_children)[:, None], np.arange(2)
    best, trace = None, []
    for gen in range(cfg.generations + 1):  # generation 0 is the initial population
        if gen > 0:
            cands = rng.integers(0, P, size=(n_children, 2, 3))
            cross = rng.random(n_children) < cfg.crossover_rate
            cross = (rng.random((n_children, n)) < 0.5) & cross[:, None]
            mut_s = rng.random((n_children, n)) < cfg.mutation_rate
            mut_t = rng.random((n_children, n)) < cfg.mutation_rate
            deltas = rng.normal(0.0, 0.35, np.count_nonzero(mut_s))
            resets = rng.integers(0, len(thr_set), np.count_nonzero(mut_t))

            # the first fittest of each three candidates
            pa, pb = cands[child, pair, key[cands].argmin(axis=2)].T
            # A neuron's scale and threshold cross over together.
            children = np.where(np.concatenate([cross, cross], axis=1), pop[pb], pop[pa])
            scales, thresholds = children[:, :n], children[:, n:]
            scales[mut_s] = np.clip(scales[mut_s] * np.exp(deltas), s_lo, s_hi)
            thresholds[mut_t] = thr_set[resets]
            pop = np.concatenate([pop[order[: cfg.elitism]], children])

        acc, key = score(pop)
        order = np.argsort(key, kind="stable")
        i = order[0]
        if best is None or key[i] < best[0]:
            best = (key[i], acc[i], pop[i])
        trace.append((gen, float(best[1]), float(np.mean(acc))))

    w = decode(best[2][None])[0].astype(int)
    thresholds = [int(t) for t in best[2][n:]]
    spec = NetworkSpec(
        input_dim=n_in,
        layers=(
            LayerSpec(w[:n_w1].reshape(n_hidden, n_in), tuple(thresholds[:n_hidden]), "SM4"),
            LayerSpec(w[n_w1:].reshape(n_out, n_hidden), tuple(thresholds[n_hidden:]), "SM2"),
        ),
    )
    dt = time.perf_counter() - t0
    log.info("ga: %d generations of %d in %.3f s (%s generations/s)",
             cfg.generations, P, dt, f"{cfg.generations / dt:,.0f}")
    return spec, trace
