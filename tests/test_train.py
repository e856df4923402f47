import math

import numpy as np
import pytest

from fluxon.snn import LayerSpec, NetworkSpec
from fluxon.train import (
    DataError,
    FeatureQuantizer,
    GaConfig,
    RealMlp,
    Sample,
    TrainingError,
    features_of,
    ga_discretize,
    labels_of,
    load_iris,
    mlp_gradients,
    mlp_loss,
    one_hot,
    quantize_features,
    split_dataset,
    train_mlp,
)

ECHO_SPLIT_SEED = 11  # quantized test partition has exactly 12 unique vectors


class TestLoadIris:
    def test_single_row(self):
        s = load_iris("5.1,3.5,1.4,0.2,Iris-setosa")
        assert s[0].features == (5.1, 3.5, 1.4, 0.2)
        assert s[0].label == 0

    def test_empty(self):
        assert load_iris("") == []

    def test_unknown_class(self):
        with pytest.raises(DataError, match="line 1"):
            load_iris("1,2,3,4,Iris-unknown")

    def test_bad_field_count(self):
        with pytest.raises(DataError, match="line 2"):
            load_iris("5.1,3.5,1.4,0.2,Iris-setosa\n1,2,3")

    def test_full_dataset_counts(self, iris_samples):
        assert len(iris_samples) == 150
        for lab in range(3):
            assert sum(1 for s in iris_samples if s.label == lab) == 50


class TestSplit:
    def test_stratified_ratios(self, iris_samples):
        train, test = split_dataset(iris_samples, 0.8, 0)
        assert len(train) == 120 and len(test) == 30
        for lab in range(3):
            assert sum(1 for s in train if s.label == lab) == 40
            assert sum(1 for s in test if s.label == lab) == 10

    def test_deterministic(self, iris_samples):
        a = split_dataset(iris_samples, 0.8, 42)
        b = split_dataset(iris_samples, 0.8, 42)
        assert a == b

    def test_plain_half_split(self, iris_samples):
        train, test = split_dataset(iris_samples, 0.5, 1, stratified=False)
        assert len(train) == 75 and len(test) == 75

    def test_degenerate_fraction(self, iris_samples):
        with pytest.raises(ValueError):
            split_dataset(iris_samples, 0.999, 0)


class TestQuantizer:
    def test_uniform_nine_values(self):
        samples = [Sample((float(v),) * 4, 0) for v in range(1, 10)]
        q, codes = quantize_features(samples)
        assert q.cuts[0, 0] == pytest.approx(11.0 / 3.0, abs=1e-9)
        assert q.cuts[0, 1] == pytest.approx(19.0 / 3.0, abs=1e-9)
        coded = q.apply(np.array([[2.0, 5.0, 8.0, 5.0]]))
        assert coded[0].tolist() == [0, 1, 2, 1]

    def test_constant_feature_warns(self, caplog):
        samples = [Sample((1.0, float(v), 1.0, 1.0), 0) for v in range(5)]
        with caplog.at_level("WARNING", logger="fluxon.train"):
            q, codes = quantize_features(samples)
        assert "degenerate" in caplog.text
        assert set(codes[:, 0]) <= {0, 2}  # constant column never maps to 1

    def test_idempotent_on_iris(self, iris_samples):
        train, _ = split_dataset(iris_samples, 0.8, ECHO_SPLIT_SEED)
        _, codes = quantize_features(train)
        requantized = [Sample(tuple(map(float, row)), s.label) for row, s in zip(codes, train)]
        _, codes2 = quantize_features(requantized)
        assert np.array_equal(codes, codes2)

    def test_twelve_unique_test_vectors(self, iris_samples):
        train, test = split_dataset(iris_samples, 0.8, ECHO_SPLIT_SEED)
        q, _ = quantize_features(train)
        codes = q.apply(features_of(test))
        assert len({tuple(r) for r in codes}) == 12

    def test_json_roundtrip(self, iris_samples):
        train, _ = split_dataset(iris_samples, 0.8, 0)
        q, _ = quantize_features(train)
        back = FeatureQuantizer.from_json(q.to_json())
        assert np.array_equal(back.cuts, q.cuts)


class TestMlp:
    def test_xor_sanity(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        T = np.array([[0], [1], [1], [0]], dtype=float)
        mlp, losses = train_mlp(X, T, epochs=5000, learning_rate=0.5, seed=1, n_hidden=2)
        pred = (mlp.forward(X)[1] > 0.5).astype(int)
        assert np.array_equal(pred, T.astype(int))

    def test_zero_epochs_returns_init(self):
        X = np.zeros((4, 4))
        T = np.zeros((4, 3))
        mlp, losses = train_mlp(X, T, epochs=0, learning_rate=0.5, seed=3)
        ref = RealMlp.init(4, 4, 3, 3)
        assert np.array_equal(mlp.w1, ref.w1) and np.array_equal(mlp.b2, ref.b2)
        assert len(losses) == 1

    def test_loss_non_increasing_on_iris(self, iris_samples):
        train, _ = split_dataset(iris_samples, 0.8, ECHO_SPLIT_SEED)
        _, Xq = quantize_features(train)
        _, losses = train_mlp(
            Xq.astype(float), one_hot(labels_of(train), 3),
            epochs=300, learning_rate=0.5, seed=7, train_biases=False,
        )
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_determinism(self):
        X = np.array([[0, 1], [1, 0]], dtype=float)
        T = np.array([[1], [0]], dtype=float)
        a, _ = train_mlp(X, T, epochs=50, learning_rate=0.3, seed=9, n_hidden=3)
        b, _ = train_mlp(X, T, epochs=50, learning_rate=0.3, seed=9, n_hidden=3)
        assert a.to_json() == b.to_json()

    def test_gradient_check_central_differences(self):
        rng = np.random.default_rng(0)
        h = 1e-5
        for _ in range(100):
            mlp = RealMlp.init(4, 4, 3, int(rng.integers(0, 2**31)))
            X = rng.integers(0, 3, size=(8, 4)).astype(float)
            T = one_hot(rng.integers(0, 3, size=8), 3)
            grads = mlp_gradients(mlp, X, T)
            field = rng.choice(["w1", "b1", "w2", "b2"])
            arr = getattr(mlp, field)
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            arr[idx] += h
            up = mlp_loss(mlp, X, T)
            arr[idx] -= 2 * h
            down = mlp_loss(mlp, X, T)
            arr[idx] += h
            numeric = (up - down) / (2 * h)
            analytic = grads[field][idx]
            denom = max(abs(analytic), abs(numeric), 1e-6)
            assert abs(analytic - numeric) / denom <= 1e-5

    def test_nan_loss_aborts(self):
        X = np.array([[1.0, float("nan")]])
        T = np.array([[1.0]])
        with pytest.raises(TrainingError, match="epoch 1"):
            train_mlp(X, T, epochs=5, learning_rate=0.5, seed=0, n_hidden=2)


class TestGa:
    def _integer_mlp(self):
        # integer weights in range; identity scale plus threshold 1
        # reproduces it exactly in generation 0
        mlp = RealMlp.init(4, 4, 3, 0)
        mlp.w1 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=float)
        mlp.w2 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]], dtype=float)
        return mlp

    def test_identity_decode_in_generation_zero(self):
        mlp = self._integer_mlp()
        X = np.array([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 2]], dtype=int)
        y = np.array([0, 1, 2])
        cfg = GaConfig(population=20, generations=0, seed=1)
        spec, trace = ga_discretize(mlp, X, y, cfg)
        assert trace[0][1] == 1.0  # the identity candidate already scores 1.0

    def test_zero_generations_returns_valid_spec(self):
        mlp = self._integer_mlp()
        X = np.array([[1, 0, 0, 0]], dtype=int)
        spec, trace = ga_discretize(mlp, X, [0], GaConfig(population=5, generations=0, seed=2))
        assert len(trace) == 1
        assert spec.layers[0].weights.shape == (4, 4)

    def test_decoded_alphabet(self, iris_samples):
        train, _ = split_dataset(iris_samples, 0.8, ECHO_SPLIT_SEED)
        _, Xq = quantize_features(train)
        y = labels_of(train)
        mlp, _ = train_mlp(Xq.astype(float), one_hot(y, 3), epochs=200,
                           learning_rate=0.5, seed=7, train_biases=False)
        spec, trace = ga_discretize(mlp, Xq, y, GaConfig(population=20, generations=10, seed=3))
        for layer in spec.layers:
            assert layer.weights.min() >= -2 and layer.weights.max() <= 2
            assert set(layer.thresholds) <= {1, 2, 5}
        assert all(b[1] >= a[1] for a, b in zip(trace, trace[1:]))

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            ga_discretize(self._integer_mlp(), np.zeros((0, 4), dtype=int), [], GaConfig(population=4))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population": 1},
            {"generations": -1},
            {"elitism": -1},
            {"population": 4, "elitism": 5},
            {"mutation_rate": 1.5},
            {"crossover_rate": -0.1},
            {"threshold_set": ()},
        ],
    )
    def test_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GaConfig(**kwargs)

    def test_config_edges_accepted(self):
        GaConfig(population=4, elitism=0, generations=0)
        GaConfig(population=4, elitism=4, threshold_set=(2,))

    def test_stage_timing_logged(self, caplog):
        mlp = self._integer_mlp()
        X = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=int)
        with caplog.at_level("INFO", logger="fluxon.train"):
            train_mlp(X.astype(float), one_hot([0, 1], 3), epochs=3, learning_rate=0.5, seed=0)
            ga_discretize(mlp, X, [0, 1], GaConfig(population=6, generations=2, seed=0))
        assert "mlp: 3 epochs in" in caplog.text
        assert "ga: 2 generations of 6 in" in caplog.text

    def test_seed_determinism(self, iris_samples):
        train, _ = split_dataset(iris_samples, 0.8, ECHO_SPLIT_SEED)
        _, Xq = quantize_features(train)
        y = labels_of(train)
        mlp, _ = train_mlp(Xq.astype(float), one_hot(y, 3), epochs=100,
                           learning_rate=0.5, seed=7, train_biases=False)
        a, _ = ga_discretize(mlp, Xq, y, GaConfig(population=12, generations=6, seed=5))
        b, _ = ga_discretize(mlp, Xq, y, GaConfig(population=12, generations=6, seed=5))
        assert a.to_json() == b.to_json()


# --- loop references -----------------------------------------------------
#
# The child-by-child GA and the two-forward training loop that the
# batched code replaced. The batched code must draw the same random
# stream and reproduce them exactly.


def _reference_ga_discretize(mlp, Xq, labels, cfg):
    Xq = np.asarray(Xq, dtype=int)
    labels = np.asarray(labels, dtype=int)
    rng = np.random.default_rng(cfg.seed)
    nh = mlp.w1.shape[0]
    n_neurons = nh + mlp.w2.shape[0]
    thr_set = np.asarray(cfg.threshold_set, dtype=int)
    s_lo, s_hi = 0.05, 20.0
    lo, hi = -2, 2

    def decode(sc):
        w1 = np.clip(np.round(sc[:nh, None] * mlp.w1), lo, hi).astype(int)
        w2 = np.clip(np.round(sc[nh:, None] * mlp.w2), lo, hi).astype(int)
        return w1, w2

    def evaluate(sc, th):
        w1, w2 = decode(sc)
        H = (Xq @ w1.T >= th[:nh]).astype(int)
        O = (H @ w2.T >= th[nh:]).astype(int)
        want = np.zeros_like(O)
        want[np.arange(len(labels)), labels] = 1
        acc = float(np.mean(np.all(O == want, axis=1)))
        nz = int(np.count_nonzero(w1) + np.count_nonzero(w2))
        mass = int(np.abs(w1).sum() + np.abs(w2).sum())
        return acc, nz, mass

    def key(f):
        return (f[0], -f[1], -f[2])

    scales = np.exp(rng.uniform(math.log(s_lo), math.log(s_hi), size=(cfg.population, n_neurons)))
    thresholds = rng.choice(thr_set, size=(cfg.population, n_neurons))
    for i, t in enumerate(thr_set[: cfg.population]):
        scales[i] = 1.0
        thresholds[i] = t

    fits = [evaluate(scales[i], thresholds[i]) for i in range(cfg.population)]
    best_i = max(range(cfg.population), key=lambda i: key(fits[i]))
    best = (scales[best_i].copy(), thresholds[best_i].copy(), fits[best_i])
    trace = [(0, best[2][0], float(np.mean([f[0] for f in fits])))]

    for gen in range(1, cfg.generations + 1):
        order = sorted(range(cfg.population), key=lambda i: key(fits[i]), reverse=True)
        new_s = [scales[i].copy() for i in order[: cfg.elitism]]
        new_t = [thresholds[i].copy() for i in order[: cfg.elitism]]

        def tournament():
            cand = rng.integers(0, cfg.population, size=3)
            return max(cand, key=lambda i: key(fits[i]))

        while len(new_s) < cfg.population:
            pa, pb = tournament(), tournament()
            sa, ta = scales[pa].copy(), thresholds[pa].copy()
            if rng.random() < cfg.crossover_rate:
                mask = rng.random(n_neurons) < 0.5
                sa[mask] = scales[pb][mask]
                ta[mask] = thresholds[pb][mask]
            mut = rng.random(n_neurons) < cfg.mutation_rate
            if mut.any():
                sa[mut] = np.clip(sa[mut] * np.exp(rng.normal(0.0, 0.35, mut.sum())), s_lo, s_hi)
            mut_t = rng.random(n_neurons) < cfg.mutation_rate
            if mut_t.any():
                ta[mut_t] = rng.choice(thr_set, size=mut_t.sum())
            new_s.append(sa)
            new_t.append(ta)

        scales = np.asarray(new_s)
        thresholds = np.asarray(new_t)
        fits = [evaluate(scales[i], thresholds[i]) for i in range(cfg.population)]
        gen_best = max(range(cfg.population), key=lambda i: key(fits[i]))
        if key(fits[gen_best]) > key(best[2]):
            best = (scales[gen_best].copy(), thresholds[gen_best].copy(), fits[gen_best])
        trace.append((gen, best[2][0], float(np.mean([f[0] for f in fits]))))

    w1, w2 = decode(best[0])
    spec = NetworkSpec(
        input_dim=mlp.w1.shape[1],
        layers=(
            LayerSpec(w1, tuple(int(t) for t in best[1][:nh]), "SM4"),
            LayerSpec(w2, tuple(int(t) for t in best[1][nh:]), "SM2"),
        ),
        threshold_set=cfg.threshold_set,
    )
    return spec, trace


def _reference_train_mlp(X, T, *, epochs, learning_rate, seed, n_hidden=4, train_biases=True):
    X = np.asarray(X, dtype=float)
    T = np.asarray(T, dtype=float)
    mlp = RealMlp.init(X.shape[1], n_hidden, T.shape[1], seed)
    if not train_biases:
        mlp.b1[:] = 0.0
        mlp.b2[:] = 0.0
    losses = [mlp_loss(mlp, X, T)]
    for _ in range(epochs):
        grads = mlp_gradients(mlp, X, T)
        mlp.w1 -= learning_rate * grads["w1"]
        mlp.w2 -= learning_rate * grads["w2"]
        if train_biases:
            mlp.b1 -= learning_rate * grads["b1"]
            mlp.b2 -= learning_rate * grads["b2"]
        losses.append(mlp_loss(mlp, X, T))
    return mlp, losses


@pytest.fixture(scope="module")
def iris_mlp(iris_samples):
    """The training partition and MLP of the default pipeline (seed 7)."""
    train, _ = split_dataset(iris_samples, 0.8, ECHO_SPLIT_SEED)
    _, Xq = quantize_features(train)
    y = labels_of(train)
    mlp, _ = train_mlp(Xq.astype(float), one_hot(y, 3), epochs=3000,
                       learning_rate=0.5, seed=7, train_biases=False)
    return mlp, Xq, y


class TestLoopReferences:
    @pytest.mark.parametrize(
        "seed,population,generations,elitism",
        [
            (0, 7, 15, 2),      # odd population
            (1, 12, 10, 0),     # no elites
            (2, 9, 6, 9),       # elites only: no children
            (3, 30, 0, 2),      # generation 0 only
            (4, 2, 8, 1),       # smallest population
            (5, 41, 25, 3),
        ],
    )
    def test_ga_matches_reference(self, iris_mlp, seed, population, generations, elitism):
        mlp, Xq, y = iris_mlp
        cfg = GaConfig(population=population, generations=generations,
                       elitism=elitism, seed=seed)
        spec, trace = ga_discretize(mlp, Xq, y, cfg)
        ref_spec, ref_trace = _reference_ga_discretize(mlp, Xq, y, cfg)
        assert spec.to_json() == ref_spec.to_json()
        assert repr(trace) == repr(ref_trace)

    def test_ga_matches_reference_at_default_size(self, iris_mlp):
        mlp, Xq, y = iris_mlp
        cfg = GaConfig(population=100, generations=200, seed=7)
        spec, trace = ga_discretize(mlp, Xq, y, cfg)
        ref_spec, ref_trace = _reference_ga_discretize(mlp, Xq, y, cfg)
        assert spec.to_json() == ref_spec.to_json()
        assert repr(trace) == repr(ref_trace)

    def test_ga_matches_reference_with_other_alphabet_and_bounds(self, iris_mlp):
        mlp, Xq, y = iris_mlp
        cfg = GaConfig(population=15, generations=12, seed=8, threshold_set=(2, 3),
                       mutation_rate=0.5, crossover_rate=0.0)
        spec, trace = ga_discretize(mlp, Xq, y, cfg)
        ref_spec, ref_trace = _reference_ga_discretize(mlp, Xq, y, cfg)
        assert spec.to_json() == ref_spec.to_json()
        assert repr(trace) == repr(ref_trace)

    @pytest.mark.parametrize("train_biases", [False, True])
    def test_train_mlp_matches_reference(self, iris_samples, train_biases):
        train, _ = split_dataset(iris_samples, 0.8, ECHO_SPLIT_SEED)
        _, Xq = quantize_features(train)
        T = one_hot(labels_of(train), 3)
        kw = dict(epochs=400, learning_rate=0.5, seed=3, train_biases=train_biases)
        mlp, losses = train_mlp(Xq.astype(float), T, **kw)
        ref_mlp, ref_losses = _reference_train_mlp(Xq.astype(float), T, **kw)
        assert mlp.to_json() == ref_mlp.to_json()
        assert repr(losses) == repr(ref_losses)
